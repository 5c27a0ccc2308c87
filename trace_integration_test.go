package privacyscope

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// branchyModule builds an n-fork, 2^n-path module so WithPathWorkers
// actually offloads branches to pool goroutines. Both arms of each branch
// add one to the observed acc, so no branch is a faint join.
func branchyModule(n int) (c, edl string) {
	var sb strings.Builder
	sb.WriteString("int fanout(char *secrets, char *output)\n{\n    int acc = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "    if (secrets[%d] > 0) acc = acc + 1; else acc = 1 + acc;\n", i)
	}
	sb.WriteString("    output[0] = acc;\n    return 0;\n}\n")
	return sb.String(), `
enclave {
    trusted {
        public int fanout([in] char *secrets, [out] char *output);
    };
};
`
}

func countSpans(spans []*TraceSpan, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
		n += countSpans(s.Spans, name)
	}
	return n
}

// TestTracerUnderPathWorkers is the ISSUE's race-coverage satellite: a
// Tracer attached through the facade with WithPathWorkers(4) — forked
// branches start spans on one goroutine and end them on another — must
// keep parent/child links consistent. Run under -race in tier 1.5.
func TestTracerUnderPathWorkers(t *testing.T) {
	cSrc, edlSrc := branchyModule(10)
	m := NewMetrics()
	tr := NewTracer()
	rep, err := AnalyzeEnclave(cSrc, edlSrc,
		WithObserver(MultiObserver(m, tr)), WithPathWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reports) != 1 {
		t.Fatalf("reports = %d", len(rep.Reports))
	}

	snap := tr.Snapshot()
	if snap.DroppedSpans != 0 {
		t.Fatalf("default cap dropped %d spans on a small module", snap.DroppedSpans)
	}
	// Exactly one check root with its engine child — fork workers must not
	// detach or duplicate the phase structure.
	if n := countSpans(snap.Spans, "check"); n != 1 {
		t.Fatalf("check spans = %d, want 1", n)
	}
	var check *TraceSpan
	for _, s := range snap.Spans {
		if s.Name == "check" {
			check = s
		}
	}
	if check == nil || countSpans(check.Spans, "symexec") != 1 {
		t.Fatalf("check/symexec not nested exactly once: %+v", snap.Spans)
	}
	// The offloaded branches recorded worker spans (started and ended on
	// pool goroutines); they are roots — the engine starts them cold.
	if m.Counter("symexec.workers.spawned") > 0 &&
		countSpans(snap.Spans, "symexec/worker") == 0 {
		t.Fatalf("workers spawned but no symexec/worker spans recorded")
	}
	// Metrics and Tracer observed the same completions for the span names
	// both track.
	ms := m.Snapshot()
	if int(ms.Spans["check"].Count) != 1 {
		t.Fatalf("metrics check count = %d", ms.Spans["check"].Count)
	}

	// The whole snapshot must round-trip as JSON (it embeds in envelopes).
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
}

// TestTracerCapUnderPathWorkers: a tiny trace buffer under concurrent
// exploration degrades to counted drops — never an error, never a missing
// analysis result.
func TestTracerCapUnderPathWorkers(t *testing.T) {
	cSrc, edlSrc := branchyModule(10)
	tr := NewTracer(WithTraceCap(3))
	rep, err := AnalyzeEnclave(cSrc, edlSrc,
		WithObserver(tr), WithPathWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict() == VerdictError {
		t.Fatalf("analysis degraded to error under trace cap")
	}
	snap := tr.Snapshot()
	if len(snap.Spans) > 3 {
		t.Fatalf("recorded %d spans past cap 3", len(snap.Spans))
	}
	if snap.DroppedSpans == 0 {
		t.Fatalf("expected counted drops past the cap")
	}
}

// TestMetricsOnlyHotPathAllocationFree pins the acceptance criterion that
// tracing's existence adds no allocations to a Metrics-only run's statement
// loop: the engine's per-statement observer calls (counter bumps on warm
// counters, distribution samples) stay allocation-free, with and without a
// no-op-collapsing MultiObserver in front.
func TestMetricsOnlyHotPathAllocationFree(t *testing.T) {
	m := NewMetrics()
	m.Add("symexec.steps", 1) // warm the counter cell
	m.Observe("symexec.path.depth", 1)
	direct := testing.AllocsPerRun(200, func() {
		m.Add("symexec.steps", 1)
	})
	if direct != 0 {
		t.Errorf("warm Metrics.Add allocates %v per call", direct)
	}
	ob := MultiObserver(m) // collapses to passthrough: the Metrics-only run
	through := testing.AllocsPerRun(200, func() {
		ob.Add("symexec.steps", 1)
	})
	if through != 0 {
		t.Errorf("MultiObserver passthrough Add allocates %v per call", through)
	}
	tr := NewTracer()
	fan := MultiObserver(m, tr)
	fanned := testing.AllocsPerRun(200, func() {
		fan.Add("symexec.steps", 1) // Tracer.Add is a deliberate no-op
	})
	if fanned != 0 {
		t.Errorf("Multi(Metrics,Tracer) Add allocates %v per call", fanned)
	}
}
