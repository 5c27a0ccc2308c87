package symexec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"privacyscope/internal/ir"
	"privacyscope/internal/minic"
	"privacyscope/internal/obs"
	"privacyscope/internal/sym"
	"privacyscope/internal/taint"
)

// summarySrc exercises pure helpers in expression position (nested,
// shared across branches), statement position, and call chains.
const summarySrc = `
int scale(int x) { return x * 3 + 1; }
int combine(int a, int b) { return scale(a) + scale(b) - a; }
int clamp(int v) { if (v > 100) { return 100; } return v; }
int enclave_f(char *secrets, char *output)
{
    int t = combine(secrets[0], secrets[1]);
    combine(t, 2);
    output[0] = clamp(t);
    if (scale(secrets[0]) > 10)
        return 1;
    return 0;
}
`

func summaryParams() []ParamSpec {
	return []ParamSpec{
		{Name: "secrets", Class: ParamSecret},
		{Name: "output", Class: ParamOut},
	}
}

// buildTable parses and lowers src and builds its summary table.
func buildTable(t *testing.T, src string, opts Options) (*ir.Program, *SummaryTable) {
	t.Helper()
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog := ir.LowerMiniC(file)
	return prog, BuildSummaryTable(context.Background(), prog, opts, nil)
}

// runBoth analyzes fn without a summary table (every call inlines) and with
// one, under otherwise identical options.
func runBoth(t *testing.T, src, fn string, params []ParamSpec, opts Options) (inline, summary *Result) {
	t.Helper()
	prog, table := buildTable(t, src, opts)
	iRes, err := NewIR(prog, opts).AnalyzeFunction(context.Background(), fn, params)
	if err != nil {
		t.Fatal(err)
	}
	sOpts := opts
	sOpts.SummaryTable = table
	sRes, err := NewIR(prog, sOpts).AnalyzeFunction(context.Background(), fn, params)
	if err != nil {
		t.Fatal(err)
	}
	return iRes, sRes
}

// requireIdentical asserts the observable byte-identity contract between
// inlining and summary application.
func requireIdentical(t *testing.T, inline, summary *Result) {
	t.Helper()
	if len(inline.Paths) != len(summary.Paths) {
		t.Fatalf("paths: inline %d, summary %d", len(inline.Paths), len(summary.Paths))
	}
	for i := range inline.Paths {
		ip, sp := inline.Paths[i], summary.Paths[i]
		if ip.PC.String() != sp.PC.String() {
			t.Errorf("path %d PC: inline %s, summary %s", i, ip.PC, sp.PC)
		}
		if fmt.Sprint(ip.Return) != fmt.Sprint(sp.Return) {
			t.Errorf("path %d return: inline %v, summary %v", i, ip.Return, sp.Return)
		}
		if ip.Cost != sp.Cost {
			t.Errorf("path %d cost: inline %d, summary %d", i, ip.Cost, sp.Cost)
		}
		if len(ip.Outs) != len(sp.Outs) {
			t.Fatalf("path %d outs: inline %d, summary %d", i, len(ip.Outs), len(sp.Outs))
		}
		for j := range ip.Outs {
			if ip.Outs[j].Display != sp.Outs[j].Display ||
				fmt.Sprint(ip.Outs[j].Value) != fmt.Sprint(sp.Outs[j].Value) {
				t.Errorf("path %d out %d: inline %s=%v, summary %s=%v", i, j,
					ip.Outs[j].Display, ip.Outs[j].Value, sp.Outs[j].Display, sp.Outs[j].Value)
			}
		}
	}
	if fmt.Sprint(inline.Warnings) != fmt.Sprint(summary.Warnings) {
		t.Errorf("warnings: inline %v, summary %v", inline.Warnings, summary.Warnings)
	}
	if inline.Coverage != summary.Coverage {
		t.Errorf("coverage: inline %+v, summary %+v", inline.Coverage, summary.Coverage)
	}
	if inline.States != summary.States {
		t.Errorf("states: inline %d, summary %d", inline.States, summary.States)
	}
	if inline.Regions != summary.Regions {
		t.Errorf("regions: inline %d, summary %d", inline.Regions, summary.Regions)
	}
}

func TestSummaryClassification(t *testing.T) {
	src := `
int pure_leaf(int x) { return x + 1; }
int pure_mid(int x) { return pure_leaf(x) * 2; }
int impure(int *p) { return p[0]; }
int rec(int x) { if (x > 0) { return rec(x - 1); } return 0; }
int noisy(int x) { printf("%d", x); return x; }
int entry(int *p, int x) { return pure_mid(x) + impure(p) + rec(x) + noisy(x); }
`
	opts := DefaultOptions()
	_, table := buildTable(t, src, opts)
	wantKinds := map[string]SummaryKind{
		"pure_leaf": SummaryPure,
		"pure_mid":  SummaryPure,
		"impure":    SummaryInline,
		"rec":       SummaryInline,
		"noisy":     SummaryInline,
	}
	for name, want := range wantKinds {
		s := table.Lookup(name)
		if s == nil {
			t.Fatalf("no summary for %s", name)
		}
		if s.Kind != want {
			t.Errorf("%s: kind %s, want %s (reason %q)", name, s.Kind, want, s.Reason)
		}
	}
	if table.Lookup("entry") != nil {
		t.Errorf("entry point summarized although nobody calls it")
	}
	if rec := table.Lookup("rec"); rec.Reason != "recursive" {
		t.Errorf("rec reason %q, want recursive", rec.Reason)
	}
	if mid := table.Lookup("pure_mid"); mid.Depth != 2 {
		t.Errorf("pure_mid depth %d, want 2", mid.Depth)
	}
	if leaf := table.Lookup("pure_leaf"); !leaf.HasAffine || leaf.AffineCoef[0] != 1 || leaf.AffineConst != 1 {
		t.Errorf("pure_leaf affine relation not derived: %+v", leaf)
	}
}

func TestSummaryByteIdenticalToInline(t *testing.T) {
	opts := DefaultOptions()
	iRes, sRes := runBoth(t, summarySrc, "enclave_f", summaryParams(), opts)
	if len(iRes.Paths) < 2 {
		t.Fatalf("fixture too weak: %d paths", len(iRes.Paths))
	}
	requireIdentical(t, iRes, sRes)
}

func TestSummaryActuallyApplies(t *testing.T) {
	m := obs.NewMetrics()
	opts := DefaultOptions()
	prog, table := buildTable(t, summarySrc, opts)
	opts.SummaryTable = table
	opts.Obs = m
	if _, err := NewIR(prog, opts).AnalyzeFunction(context.Background(), "enclave_f", summaryParams()); err != nil {
		t.Fatal(err)
	}
	if m.Counter("summary.applied") == 0 {
		t.Errorf("every call inlined although a table was set: summary.applied = 0")
	}
}

// TestSummaryDisabledUnderTrace pins the guard: trace recording observes
// callee-body execution, so summaries must not elide it.
func TestSummaryDisabledUnderTrace(t *testing.T) {
	m := obs.NewMetrics()
	opts := DefaultOptions()
	prog, table := buildTable(t, summarySrc, opts)
	opts.SummaryTable = table
	opts.TrackTrace = true
	opts.Obs = m
	if _, err := NewIR(prog, opts).AnalyzeFunction(context.Background(), "enclave_f", summaryParams()); err != nil {
		t.Fatal(err)
	}
	if n := m.Counter("summary.applied"); n != 0 {
		t.Errorf("summaries applied under TrackTrace: %d", n)
	}
}

// TestSummaryOverBoundInlinesExactly pins the scratch step bound: a pure
// helper whose scratch run passes it is classified inline, including when
// the bound is crossed while replaying pure callees' summaries (the replay
// rolls back and inlines, so the run truncates where inlining would), and
// calls to it explore exactly as without a table, with full coverage.
func TestSummaryOverBoundInlinesExactly(t *testing.T) {
	src := `
int leaf(int x)
{
    int acc = x;
    int i;
    for (i = 0; i < 6000; i = i + 1) { acc = acc + 1; }
    return acc;
}
int mid(int x) { return leaf(x) + leaf(x + 1); }
int top(int x) { return mid(x) + mid(x + 2); }
int busy(int x)
{
    int acc = x;
    int i;
    for (i = 0; i < 30000; i = i + 1) { acc = acc + 1; }
    return acc;
}
int enclave_f(char *secrets, char *output)
{
    output[0] = top(secrets[0]);
    output[1] = busy(secrets[1]);
    return 0;
}
`
	opts := DefaultOptions()
	_, table := buildTable(t, src, opts)
	for name, want := range map[string]SummaryKind{
		"leaf": SummaryPure, "mid": SummaryPure, "top": SummaryInline, "busy": SummaryInline,
	} {
		s := table.Lookup(name)
		if s == nil || s.Kind != want {
			t.Fatalf("%s: %+v, want kind %s", name, s, want)
		}
		if want == SummaryInline && s.Reason != "scratch run truncated: "+string(TruncStepBudget) {
			t.Errorf("%s: reason %q, want the step bound", name, s.Reason)
		}
	}
	iRes, sRes := runBoth(t, src, "enclave_f", summaryParams(), opts)
	requireIdentical(t, iRes, sRes)
	if sRes.Coverage.Truncated || len(sRes.Warnings) > 0 {
		t.Errorf("over-bound helpers degraded the run: %+v %v", sRes.Coverage, sRes.Warnings)
	}
}

// TestSummaryRecursionInlinesExactly pins that a recursive callee is
// classified inline, so a call to it reaches the OCALL sink at the bottom
// of the recursion exactly as without a table.
func TestSummaryRecursionInlinesExactly(t *testing.T) {
	src := `
int down(int n, int s)
{
    if (n <= 0) { printf("%d", s); return 0; }
    return down(n - 1, s);
}
int enclave_f(char *secrets) { return down(3, secrets[0]); }
`
	opts := DefaultOptions()
	_, table := buildTable(t, src, opts)
	if s := table.Lookup("down"); s == nil || s.Kind != SummaryInline || s.Reason != "recursive" {
		t.Fatalf("down: %+v", s)
	}
	iRes, sRes := runBoth(t, src, "enclave_f", []ParamSpec{{Name: "secrets", Class: ParamSecret}}, opts)
	requireIdentical(t, iRes, sRes)
	if sRes.Coverage.Truncated || len(sRes.Paths) != 1 || len(sRes.Paths[0].Ocalls) != 1 {
		t.Errorf("recursion did not reach its sink: coverage %+v, paths %d", sRes.Coverage, len(sRes.Paths))
	}
}

// doublingChain generates helpers h0..h{depth-1}, each running a concrete
// loop and calling the level below twice (inlining the top costs 2^depth-1
// calls; the b-b term folds away), and an entry point exporting the top
// helper applied to one secret.
func doublingChain(depth int) string {
	var sb strings.Builder
	sb.WriteString("int h0(int x)\n{\n    int acc = x;\n    int i = 0;\n    while (i < 6) { acc = acc + 3; i = i + 1; }\n    return acc;\n}\n")
	for i := 1; i < depth; i++ {
		fmt.Fprintf(&sb, "int h%d(int x)\n{\n    int acc = x;\n    int i = 0;\n    while (i < 6) { acc = acc + 3; i = i + 1; }\n"+
			"    int a = h%d(acc);\n    int b = h%d(acc + 2);\n    return a + (b - b);\n}\n", i, i-1, i-1)
	}
	fmt.Fprintf(&sb, "int enclave_f(char *secrets, char *output)\n{\n    output[0] = h%d(secrets[0]);\n    return 0;\n}\n", depth-1)
	return sb.String()
}

// TestSummaryExactOnDoublingChain pins the linear build's exactness: every
// helper's summary equals the one a table-free scratch exploration of that
// helper derives (kind, skeleton, steps, states, regions, cost, depth), and
// the entry point explores identically with and without the table.
func TestSummaryExactOnDoublingChain(t *testing.T) {
	const depth = 9
	src := doublingChain(depth)
	opts := DefaultOptions()
	prog, table := buildTable(t, src, opts)
	var alloc taint.Allocator
	b := sym.NewBuilder(&alloc)
	arg := []sym.Expr{b.FreshPublic("arg")}
	for i := 0; i < depth; i++ {
		name := fmt.Sprintf("h%d", i)
		got := table.Lookup(name)
		if got == nil || got.Kind != SummaryPure {
			t.Fatalf("%s: %+v, want pure", name, got)
		}
		sOpts := opts
		sOpts.MaxPaths = 2
		res, err := NewIR(prog, sOpts).AnalyzeFunction(context.Background(), name, []ParamSpec{{Name: "x", Class: ParamPublic}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Paths) != 1 || res.Coverage.Truncated {
			t.Fatalf("%s: table-free run: %d paths, coverage %+v", name, len(res.Paths), res.Coverage)
		}
		p := res.Paths[0]
		skel, err := sym.Abstract(p.Return, map[int]int{res.Builder.Symbols()[0].ID: 0})
		if err != nil {
			t.Fatal(err)
		}
		want := &Summary{
			Skeleton: skel,
			Steps:    int64(res.Coverage.StepsUsed),
			States:   int64(res.States) - 2,
			Regions:  int64(res.Regions),
			Cost:     int64(p.Cost),
			Depth:    i + 1,
		}
		if got.Steps != want.Steps || got.States != want.States || got.Regions != want.Regions ||
			got.Cost != want.Cost || got.Depth != want.Depth {
			t.Errorf("%s: steps/states/regions/cost/depth %d/%d/%d/%d/%d, table-free %d/%d/%d/%d/%d", name,
				got.Steps, got.States, got.Regions, got.Cost, got.Depth,
				want.Steps, want.States, want.Regions, want.Cost, want.Depth)
		}
		gs, err := got.Skeleton.Instantiate(arg)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := want.Skeleton.Instantiate(arg)
		if err != nil {
			t.Fatal(err)
		}
		if gs.String() != ws.String() {
			t.Errorf("%s: skeleton %s, table-free %s", name, gs, ws)
		}
	}
	iRes, sRes := runBoth(t, src, "enclave_f", summaryParams(), opts)
	requireIdentical(t, iRes, sRes)
}

// TestSummaryBuildLinear pins the build's cost: each scratch run replays
// its callees' summaries instead of re-inlining them, so the statements the
// build executes grow by the same amount per level of the doubling chain,
// where a rolled-up build would double per level.
func TestSummaryBuildLinear(t *testing.T) {
	executed := func(depth int) int64 {
		t.Helper()
		file, err := minic.Parse(doublingChain(depth))
		if err != nil {
			t.Fatal(err)
		}
		m := obs.NewMetrics()
		BuildSummaryTable(context.Background(), ir.LowerMiniC(file), DefaultOptions(), m)
		return m.Counter("summary.steps.executed")
	}
	// Depth 9 keeps every helper pure: from h10 up, a helper's replayed
	// step accounting passes scratchStepBound.
	e3, e6, e9 := executed(3), executed(6), executed(9)
	if e6-e3 <= 0 || e9-e6 != e6-e3 {
		t.Errorf("build steps at depth 3/6/9 = %d/%d/%d, want equal increments", e3, e6, e9)
	}
	if e9 > 9*64 {
		t.Errorf("depth-9 build executed %d steps, want at most %d", e9, 9*64)
	}
}

// TestInlineDepthTruncatesCoverage is the regression test for the
// inline-depth soundness hole: a skipped call (statement position) or an
// unconstrained return (expression position) under-approximates the
// program, so coverage must read truncated — a clean run degrades to
// Inconclusive, never Secure.
func TestInlineDepthTruncatesCoverage(t *testing.T) {
	exprPos := `
int d4(int x) { return x; }
int d3(int x) { return d4(x); }
int d2(int x) { return d3(x); }
int d1(int x) { return d2(x); }
int enclave_f(char *secrets) { return d1(secrets[0]); }
`
	stmtPos := `
int d4(int x) { printf("%d", x); return x; }
int d3(int x) { d4(x); return x; }
int d2(int x) { d3(x); return x; }
int d1(int x) { d2(x); return x; }
int enclave_f(char *secrets) { d1(secrets[0]); return 0; }
`
	for name, src := range map[string]string{"expr": exprPos, "stmt": stmtPos} {
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.InlineDepth = 3
			res := analyzeSrc(t, src, "enclave_f", []ParamSpec{
				{Name: "secrets", Class: ParamSecret},
			}, opts)
			if !res.Coverage.Truncated || res.Coverage.Reason != TruncInlineDepth {
				t.Errorf("depth-exceeded run not marked truncated: %+v", res.Coverage)
			}
			found := false
			for _, w := range res.Warnings {
				if strings.Contains(w, "inline depth exceeded") {
					found = true
				}
			}
			if !found {
				t.Errorf("no depth warning: %v", res.Warnings)
			}
		})
	}
}
