package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"privacyscope"
	"privacyscope/internal/core"
	"privacyscope/internal/detect"
	"privacyscope/internal/ir"
	"privacyscope/internal/minic"
	"privacyscope/internal/obs"
	"privacyscope/internal/symexec"
)

// SummaryBenchRow is one configuration of the call-graph study: the same
// module analyzed inline (detect.Run without a summary table: every call
// re-explored at every call site on every path) and through the facade,
// which resolves calls through compositional summaries (every helper
// explored once). The engine columns are identical by construction —
// summary application replays each summarized callee's step accounting —
// so a single set of deterministic counters describes both runs. What
// differs is the work actually done: the statements each run executed, and
// the wall clocks.
type SummaryBenchRow struct {
	// Name of the generated call graph ("deep-chain", "shared-helpers").
	Name string
	// Helpers in the chain and Entries sharing it.
	Helpers int
	Entries int
	// Findings/Paths/States are identical across both modes (checked).
	Findings int
	Paths    int
	States   int
	// SummariesComputed is the summary.computed counter of the summary run:
	// one summary per helper, built once bottom-up and shared by every call
	// site and every entry point.
	SummariesComputed int64
	// InlineSteps is the statements the inline run executed; SummarySteps
	// is the summary.steps.executed counter of the summary run: statements
	// it actually executed, scratch builds included, without the replayed
	// step accounting. StepReduction is their ratio (deterministic).
	InlineSteps   int64
	SummarySteps  int64
	StepReduction float64
	// InlineSeconds/SummarySeconds are the two wall clocks;
	// SpeedupVsInline is their ratio (host-dependent: a timing column).
	InlineSeconds   float64
	SummarySeconds  float64
	SpeedupVsInline float64
}

// SummaryBenchProgram generates the call-graph-heavy module: a chain of
// pure helpers h0..h{depth-1} where each level runs a concrete loop and
// calls the previous level twice — inlining the top of the chain costs
// 2^depth-1 call expansions while a summary build pays the chain once
// bottom-up — shared across `entries` ECALLs that each route secrets
// through the chain on both arms of a secret branch. The b-b trick keeps
// the *result* expression compact (the duplicate subtree folds to 0), so
// the two modes differ in exploration work, not in downstream checker
// work on a ballooning output expression.
func SummaryBenchProgram(depth, entries int) (cSrc, edlSrc string) {
	var c strings.Builder
	c.WriteString(`int h0(int x)
{
    int acc = x;
    int i = 0;
    while (i < 6) { acc = acc + 3; i = i + 1; }
    return acc;
}
`)
	for i := 1; i < depth; i++ {
		fmt.Fprintf(&c, `int h%d(int x)
{
    int acc = x;
    int i = 0;
    while (i < 6) { acc = acc + 3; i = i + 1; }
    int a = h%d(acc);
    int b = h%d(acc + 2);
    return a + (b - b);
}
`, i, i-1, i-1)
	}
	top := depth - 1
	var e strings.Builder
	e.WriteString("enclave {\n    trusted {\n")
	for i := 0; i < entries; i++ {
		fmt.Fprintf(&c, `
int enclave_e%d(int *secrets, int *output)
{
    int acc = h%d(secrets[0]);
    if (secrets[1] > 0)
        acc = acc + h%d(secrets[2]);
    else
        acc = acc + h%d(acc);
    output[0] = acc;
    return 0;
}
`, i, top, top, top)
		fmt.Fprintf(&e, "        public int enclave_e%d([in] int *secrets, [out] int *output);\n", i)
	}
	e.WriteString("    };\n};\n")
	return c.String(), e.String()
}

// SummaryBench measures inline vs. summary call resolution over generated
// call-graph-heavy modules and checks the two agree on every deterministic
// engine column before reporting.
func SummaryBench() ([]SummaryBenchRow, error) {
	set := detect.DefaultSet()
	configs := []struct {
		name             string
		helpers, entries int
	}{
		{"deep-chain", 9, 1},
		{"shared-helpers", 9, 4},
	}
	var rows []SummaryBenchRow
	for _, cf := range configs {
		cSrc, edlSrc := SummaryBenchProgram(cf.helpers, cf.entries)

		start := time.Now()
		inline, err := inlineEnclave(set, cSrc, cf.entries)
		if err != nil {
			return nil, fmt.Errorf("%s inline: %w", cf.name, err)
		}
		inlineSec := time.Since(start).Seconds()

		metrics := obs.NewMetrics()
		start = time.Now()
		sum, err := privacyscope.AnalyzeEnclave(cSrc, edlSrc, privacyscope.WithObserver(metrics))
		if err != nil {
			return nil, fmt.Errorf("%s summaries: %w", cf.name, err)
		}
		sumSec := time.Since(start).Seconds()

		row := SummaryBenchRow{
			Name:              cf.name,
			Helpers:           cf.helpers,
			Entries:           cf.entries,
			Findings:          inline.TotalFindings(),
			SummariesComputed: metrics.Counter("summary.computed"),
			SummarySteps:      metrics.Counter("summary.steps.executed"),
			InlineSeconds:     inlineSec,
			SummarySeconds:    sumSec,
		}
		if sumSec > 0 {
			row.SpeedupVsInline = inlineSec / sumSec
		}
		for _, r := range inline.Reports {
			row.Paths += r.Paths
			row.States += r.States
			row.InlineSteps += int64(r.Coverage.StepsUsed)
		}
		if row.SummarySteps > 0 {
			row.StepReduction = float64(row.InlineSteps) / float64(row.SummarySteps)
		}
		// Differential guard: the bench is only meaningful while summary
		// resolution stays identical to inlining.
		sumPaths, sumStates := 0, 0
		for _, r := range sum.Reports {
			sumPaths += r.Paths
			sumStates += r.States
		}
		if sum.TotalFindings() != row.Findings || sumPaths != row.Paths || sumStates != row.States {
			return nil, fmt.Errorf("%s: summary mode diverged from inline (findings %d/%d, paths %d/%d, states %d/%d)",
				cf.name, sum.TotalFindings(), row.Findings, sumPaths, row.Paths, sumStates, row.States)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// inlineEnclave analyzes every entry point of a SummaryBenchProgram module
// with detect.Run and no summary table, so every call inlines.
func inlineEnclave(set detect.Set, cSrc string, entries int) (*privacyscope.EnclaveReport, error) {
	file, err := minic.Parse(cSrc)
	if err != nil {
		return nil, err
	}
	prog := ir.LowerMiniC(file)
	params := []symexec.ParamSpec{
		{Name: "secrets", Class: symexec.ParamSecret},
		{Name: "output", Class: symexec.ParamOut},
	}
	out := &privacyscope.EnclaveReport{}
	for i := 0; i < entries; i++ {
		rep, err := detect.Run(context.Background(), set, core.DefaultOptions(), prog, fmt.Sprintf("enclave_e%d", i), params)
		if err != nil {
			return nil, err
		}
		out.Reports = append(out.Reports, rep)
	}
	return out, nil
}

// RenderSummaryBench formats the call-graph study.
func RenderSummaryBench(rows []SummaryBenchRow) string {
	var sb strings.Builder
	sb.WriteString("Summary vs. inline call resolution — call-graph-heavy modules\n")
	sb.WriteString(fmt.Sprintf("%-16s %8s %8s %9s %7s %8s %10s %12s %13s %10s %12s %12s %9s\n",
		"Module", "helpers", "entries", "findings", "paths", "states", "summaries",
		"inline-steps", "summary-steps", "reduction", "inline(s)", "summary(s)", "speedup"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-16s %8d %8d %9d %7d %8d %10d %12d %13d %9.1fx %12.6f %12.6f %8.1fx\n",
			r.Name, r.Helpers, r.Entries, r.Findings, r.Paths, r.States,
			r.SummariesComputed, r.InlineSteps, r.SummarySteps, r.StepReduction,
			r.InlineSeconds, r.SummarySeconds, r.SpeedupVsInline))
	}
	sb.WriteString("(helpers form a doubling call chain: inlining the top costs 2^n call\n")
	sb.WriteString("expansions per call site per path; a summary pays the chain once)\n")
	return sb.String()
}
