package symexec

import (
	"context"
	"strings"
	"testing"

	"privacyscope/internal/obs"
)

// TestFaintJoinHelperIsPure: a helper whose only fork is a faint join
// finishes on one path under the pre-fork path condition. It therefore
// summarizes as pure, inlining it in expression position raises no
// "callee forks" warning, and summary mode stays identical to inline.
func TestFaintJoinHelperIsPure(t *testing.T) {
	const src = `
int helper(int x, int s)
{
    int scratch = 0;
    if (s > 3) { scratch = scratch + x; } else { scratch = scratch - 1; }
    return x * 2;
}
int enclave_f(char *secrets, char *output)
{
    output[0] = helper(secrets[0], secrets[1]);
    return 0;
}
`
	opts := DefaultOptions()
	_, table := buildTable(t, src, opts)
	if s := table.Lookup("helper"); s == nil || s.Kind != SummaryPure {
		t.Fatalf("helper summary = %+v, want pure", s)
	}
	m := obs.NewMetrics()
	opts.Obs = m
	inline, summary := runBoth(t, src, "enclave_f", summaryParams(), opts)
	if got := m.Counter("symexec.merges"); got != 1 {
		t.Errorf("symexec.merges = %d, want 1 (the inline run's join)", got)
	}
	if len(inline.Paths) != 1 || inline.Paths[0].PC.Len() != 0 {
		t.Errorf("inline run: %d paths, first PC %v; want one path under the empty PC", len(inline.Paths), inline.Paths[0].PC)
	}
	for _, w := range inline.Warnings {
		if strings.Contains(w, "forks") {
			t.Errorf("unexpected warning %q", w)
		}
	}
	requireIdentical(t, inline, summary)
}

// TestFaintJoinSkipsInfeasibleArm: when only one arm of a faint join is
// feasible, exploration continues on that arm under its own extended path
// condition, as for any other branch.
func TestFaintJoinSkipsInfeasibleArm(t *testing.T) {
	const src = `
int enclave_f(char *secrets, char *output)
{
    int scratch = 0;
    if (secrets[0] > 5) {
        if (secrets[0] > 2) { scratch = scratch + 1; } else { scratch = scratch - 1; }
        output[0] = 1;
    }
    return 0;
}
`
	res, m := analyzeFaint(t, src)
	if got := m.Counter("symexec.merges"); got != 0 {
		t.Errorf("symexec.merges = %d, want 0", got)
	}
	if got := m.Counter("symexec.paths.pruned"); got != 1 {
		t.Errorf("symexec.paths.pruned = %d, want 1", got)
	}
	if len(res.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(res.Paths))
	}
	if pc := res.Paths[0].PC.String(); !strings.Contains(pc, "> 2") {
		t.Errorf("surviving arm's PC %q lost its conjunct", pc)
	}
}

func analyzeFaint(t *testing.T, src string) (*Result, *obs.Metrics) {
	t.Helper()
	prog, _ := buildTable(t, src, DefaultOptions())
	m := obs.NewMetrics()
	opts := DefaultOptions()
	opts.Obs = m
	res, err := NewIR(prog, opts).AnalyzeFunction(context.Background(), "enclave_f", summaryParams())
	if err != nil {
		t.Fatal(err)
	}
	return res, m
}
