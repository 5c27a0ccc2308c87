package privacyscope

import (
	"encoding/json"
	"strings"
	"testing"
)

// This file is the summary gate (make summary-smoke). Every analysis
// resolves calls through the module's summary table, and the committed
// report golden (report_golden_test.go) was recorded by table-free
// exploration, where every call inlines. So each module of the ML evaluation
// suite, the examples/project tree and the §IV programs must reproduce its
// golden byte for byte, both sequentially and with the table shared
// read-only across WithParallelism(4) per-ECALL jobs. Run under -race.

// requireSummaryGolden analyzes one golden module sequentially and under
// WithParallelism(4), and requires both to match its golden entry.
func requireSummaryGolden(t *testing.T, m goldenModule) {
	t.Helper()
	requireGolden(t, m, m.analyze(t))
	requireGolden(t, m, m.analyze(t, WithParallelism(4)))
}

// TestSummaryDifferentialMLSuite runs the ML evaluation corpus (Table V
// modules, the extension modules, and the malicious and fixed variants).
func TestSummaryDifferentialMLSuite(t *testing.T) {
	for _, m := range mlsuiteGolden() {
		t.Run(m.name, func(t *testing.T) { requireSummaryGolden(t, m) })
	}
}

// TestSummaryDifferentialExamplesProject runs every unit under
// examples/project (the batch corpus, including the nested ml/ unit).
func TestSummaryDifferentialExamplesProject(t *testing.T) {
	n := 0
	for _, m := range examplesGolden(t) {
		name, ok := strings.CutPrefix(m.name, "project/")
		if !ok {
			continue
		}
		n++
		t.Run(name, func(t *testing.T) { requireSummaryGolden(t, m) })
	}
	if n < 7 {
		t.Fatalf("found %d examples/project units, want at least 7", n)
	}
}

// TestSummaryDifferentialSectionIV runs the §IV programs, including the
// leak routed through pure helpers (exact +4 inversion through two replayed
// skeletons), a recursive helper that prints a secret, and a pure helper
// whose loop outruns the summary build's step bound: the last two must
// inline to the same finding as table-free exploration.
func TestSummaryDifferentialSectionIV(t *testing.T) {
	for _, m := range sectionIVGolden() {
		t.Run(m.name, func(t *testing.T) { requireSummaryGolden(t, m) })
	}
}

// TestSummaryAppliedByDefault pins that the facade resolves calls through
// summaries with no option set, builds no table when WithTrace records
// callee bodies, and reports the same result either way.
func TestSummaryAppliedByDefault(t *testing.T) {
	var m goldenModule
	for _, g := range sectionIVGolden() {
		if g.name == "insecure-through-helpers" {
			m = g
		}
	}
	run := func(opts ...Option) (*Report, *Metrics) {
		t.Helper()
		metrics := NewMetrics()
		return analyzeCSrc(t, m.c, m.fn, append(opts, WithObserver(metrics))...), metrics
	}
	sum, sm := run()
	if sm.Counter("summary.applied") == 0 {
		t.Error("default run applied no summaries")
	}
	traced, tm := run(WithTrace())
	if n := tm.Counter("summary.computed"); n != 0 {
		t.Errorf("WithTrace built %d summaries, want none", n)
	}
	for _, r := range []*Report{sum, traced} {
		r.Duration = 0
	}
	a, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(traced)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("summarized and inlined reports differ:\n%s\n%s", a, b)
	}
}
