package symexec

import (
	"context"
	"fmt"
	"testing"

	"privacyscope/internal/ir"
	"privacyscope/internal/minic"
)

// TestShadowRegionsFollowSlots pins the region a declaration gets. Names
// resolve at lowering to (name, shadowing depth) slots: sibling
// redeclarations, which are never live at once, share one region, exactly
// as a single reused variable does, while a nested shadow is a variable of
// its own and adds one region. The outputs are the same in all four
// programs.
func TestShadowRegionsFollowSlots(t *testing.T) {
	run := func(body string) *Result {
		t.Helper()
		src := "int f(int *secrets, int *output) {\n" + body + "\nreturn 0;\n}"
		return analyzeSrc(t, src, "f", []ParamSpec{
			{Name: "secrets", Class: ParamSecret},
			{Name: "output", Class: ParamOut},
		}, DefaultOptions())
	}
	outs := func(res *Result) string {
		if len(res.Paths) != 1 {
			t.Fatalf("paths = %d, want 1", len(res.Paths))
		}
		s := ""
		for _, o := range res.Paths[0].Outs {
			s += o.Display + "=" + o.Value.String() + " "
		}
		return s
	}
	reused := run("int t = secrets[0]; output[0] = t; t = secrets[1]; output[1] = t;")
	siblings := run("{ int t = secrets[0]; output[0] = t; } { int t = secrets[1]; output[1] = t; }")
	nested := run("{ int t = secrets[0]; output[0] = t; { int t = secrets[1]; output[1] = t; } }")
	loops := run("for (int i = 0; i < 2; i++) output[i] = secrets[i]; for (int i = 0; i < 2; i++) output[i] = secrets[i];")
	oneI := run("int i; for (i = 0; i < 2; i++) output[i] = secrets[i]; for (i = 0; i < 2; i++) output[i] = secrets[i];")

	want := outs(reused)
	for name, res := range map[string]*Result{"siblings": siblings, "nested": nested, "loops": loops, "oneI": oneI} {
		if got := outs(res); got != want {
			t.Errorf("%s outs = %s, want %s", name, got, want)
		}
	}
	if siblings.Regions != reused.Regions {
		t.Errorf("sibling redeclarations: regions = %d, want %d (one shared region)", siblings.Regions, reused.Regions)
	}
	if loops.Regions != oneI.Regions {
		t.Errorf("two for (int i …) loops: regions = %d, want %d (one shared i)", loops.Regions, oneI.Regions)
	}
	if nested.Regions != reused.Regions+1 {
		t.Errorf("nested shadow: regions = %d, want %d (one region of its own)", nested.Regions, reused.Regions+1)
	}
}

// TestLoopDeclarationAllocatesNothing pins the cost of re-executing a
// declaration: its slot's region is minted once per frame and shared by the
// states a secret fork made, so a loop whose body declares a local
// allocates, per iteration, what a loop with an empty body does (within
// half an allocation: the race detector's bookkeeping adds a stray one).
func TestLoopDeclarationAllocatesNothing(t *testing.T) {
	params := []ParamSpec{{Name: "secrets", Class: ParamSecret}, {Name: "output", Class: ParamOut}}
	allocs := func(body string, n int) float64 {
		src := fmt.Sprintf(`
int f(int *secrets, int *output) {
    if (secrets[0] > 0) { output[1] = 1; }
    for (int i = 0; i < %d; i++) { %s }
    return 0;
}`, n, body)
		prog := ir.LowerMiniC(minic.MustParse(src))
		return testing.AllocsPerRun(5, func() {
			if _, err := NewIR(prog, DefaultOptions()).AnalyzeFunction(context.Background(), "f", params); err != nil {
				t.Fatal(err)
			}
		})
	}
	perIter := func(body string) float64 { return (allocs(body, 40) - allocs(body, 20)) / 20 }
	if decl, empty := perIter("int t;"), perIter(";"); decl-empty >= 0.5 {
		t.Errorf("allocations per iteration: %v with a declaration, %v without; want the same", decl, empty)
	}
}
