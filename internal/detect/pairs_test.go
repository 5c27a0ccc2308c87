package detect

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"privacyscope/internal/core"
	"privacyscope/internal/ir"
	"privacyscope/internal/minic"
	"privacyscope/internal/symexec"
)

// pairBudgetProbe is a 2^10-path module: nine secret pre-branches with the
// given condition that only feed acc, output[0] = out0, and a final branch
// on secrets[0] that writes 1 or 2 to output[1]. Its return sink (and
// output[0] when out0 is constant) has one value on every path, so comparing
// those observations pairwise costs over 500,000 pairs and finds nothing.
func pairBudgetProbe(t *testing.T, cond func(i int) string, out0 string) *core.Report {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("int f(int *secrets, int *output) {\n    int acc = 0;\n")
	for i := 1; i <= 9; i++ {
		fmt.Fprintf(&sb, "    if (%s > 0) { acc = acc + 1; }\n", cond(i))
	}
	fmt.Fprintf(&sb, "    output[0] = %s;\n", out0)
	sb.WriteString("    if (secrets[0] > 0) { output[1] = 1; } else { output[1] = 2; }\n    return 0;\n}\n")
	opts := core.DefaultOptions()
	opts.ReplayWitness = false
	rep, err := Run(context.Background(), DefaultSet(), opts, ir.LowerMiniC(minic.MustParse(sb.String())), "f", []symexec.ParamSpec{
		{Name: "secrets", Class: symexec.ParamSecret},
		{Name: "output", Class: symexec.ParamOut},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Paths != 1024 {
		t.Fatalf("paths = %d, want 1024", rep.Paths)
	}
	return rep
}

// TestPairBudgetSkipsSingleValueSinks: sinks whose observations all share
// one value cost no pair budget, so the implicit leak of secrets[0] at
// output[1] behind them is reported.
func TestPairBudgetSkipsSingleValueSinks(t *testing.T) {
	rep := pairBudgetProbe(t, func(i int) string { return fmt.Sprintf("secrets[%d]", i) }, "0")
	for _, f := range rep.Implicit() {
		if f.Where == "output[1]" && f.Secret == "secrets[0]" {
			return
		}
	}
	t.Fatalf("implicit leak of secrets[0] at output[1] not reported:\n%s", rep.Render())
}

// TestPairBudgetExhaustionIsInconclusive: output[0] = acc takes ten values,
// and every pair of paths with different values differs in two-secret
// conditions, so the budget runs out before output[1] is reached. The
// report must say so and read Inconclusive, never Secure.
func TestPairBudgetExhaustionIsInconclusive(t *testing.T) {
	rep := pairBudgetProbe(t, func(i int) string { return fmt.Sprintf("secrets[%d] + secrets[%d]", i, i+10) }, "acc")
	if v := rep.Verdict(); v != core.VerdictInconclusive {
		t.Fatalf("verdict %s, want inconclusive:\n%s", v, rep.Render())
	}
	if !rep.Coverage.Truncated || rep.Coverage.Reason != symexec.TruncPairBudget {
		t.Errorf("coverage = %+v, want truncated by %s", rep.Coverage, symexec.TruncPairBudget)
	}
	want := "implicit detector: pair budget of 100000 sibling comparisons exhausted at sink output[0]"
	for _, w := range rep.Warnings {
		if strings.Contains(w, want) {
			return
		}
	}
	t.Errorf("no warning containing %q in %q", want, rep.Warnings)
}
