package symexec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"privacyscope/internal/ir"
	"privacyscope/internal/minic"
	"privacyscope/internal/sym"
	"privacyscope/internal/taint"
)

// straightLine returns a function of n statements x = x + 3 over a public
// scalar x.
func straightLine(n int) *ir.Program {
	src := "int f(int x) {\n" + strings.Repeat("    x = x + 3;\n", n) + "    return x;\n}\n"
	return ir.LowerMiniC(minic.MustParse(src))
}

// nestedSecretIfs returns a function of n nested secret ifs, each a block
// holding only the next, with o[0] = 1 innermost.
func nestedSecretIfs(n int) *ir.Program {
	var sb strings.Builder
	sb.WriteString("int f(int *s, int *o) {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "if (s[%d] > %d) {\n", i%4, i)
	}
	sb.WriteString("o[0] = 1;\n")
	sb.WriteString(strings.Repeat("}\n", n))
	sb.WriteString("return 0;\n}\n")
	return ir.LowerMiniC(minic.MustParse(sb.String()))
}

var nestedParams = []ParamSpec{{Name: "s", Class: ParamSecret}, {Name: "o", Class: ParamOut}}

func runAllocs(t testing.TB, prog *ir.Program, params []ParamSpec) float64 {
	return testing.AllocsPerRun(3, func() {
		if _, err := NewIR(prog, DefaultOptions()).AnalyzeFunction(context.Background(), "f", params); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStraightLineAllocatesOnlyItsNodes pins the per-statement cost of
// straight-line code: a statement x = x + 3 allocates what interning its
// one new expression node does (within half an allocation: the race
// detector's bookkeeping adds a stray one). Values are not boxed and a
// statement with nothing to branch on needs no continuation.
func TestStraightLineAllocatesOnlyItsNodes(t *testing.T) {
	params := []ParamSpec{{Name: "x", Class: ParamPublic}}
	perStmt := (runAllocs(t, straightLine(80), params) - runAllocs(t, straightLine(40), params)) / 40

	chain := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			itn := sym.NewInterner()
			var x sym.Expr = sym.NewBuilder(new(taint.Allocator)).FreshPublic("x")
			for i := 0; i < n; i++ {
				x = itn.NewBinary(sym.OpAdd, x, sym.IntConst{V: 3})
			}
		})
	}
	perNode := (chain(80) - chain(40)) / 40
	if perStmt-perNode >= 0.5 {
		t.Errorf("a statement allocates %v times, interning its node %v times; want the same", perStmt, perNode)
	}
}

// TestNestedSecretIfsLinear pins the cost of nesting: n nested secret ifs
// explore n+1 paths, and a path that ends deep inside the nest resumes
// the code after it without revisiting each enclosing block, so doubling
// n at most doubles the allocations.
func TestNestedSecretIfsLinear(t *testing.T) {
	const n = 500
	small, large := runAllocs(t, nestedSecretIfs(n), nestedParams), runAllocs(t, nestedSecretIfs(2*n), nestedParams)
	if large > 2.2*small {
		t.Errorf("allocations: %v at %d levels, %v at %d: superlinear", small, n, large, 2*n)
	}
}

// BenchmarkNestedSecretIfs measures the engine alone on n nested secret
// ifs (states grow as 4n + 4).
func BenchmarkNestedSecretIfs(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000} {
		prog := nestedSecretIfs(n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewIR(prog, DefaultOptions()).AnalyzeFunction(context.Background(), "f", nestedParams); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
