package ir

import (
	"sort"
	"strings"
	"testing"

	"privacyscope/internal/minic"
)

// faintOf lowers src and returns the named function's faint locals (sorted)
// and the FaintJoin marks of its ifs in program order.
func faintOf(t *testing.T, src, fn string) ([]string, []bool) {
	t.Helper()
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := LowerMiniC(file).Func(fn)
	if !ok {
		t.Fatalf("no function %s", fn)
	}
	faint, _ := analyzeLocals(f, file.Globals)
	names := make([]string, 0, len(faint))
	for n := range faint {
		names = append(names, n)
	}
	sort.Strings(names)
	var joins []bool
	walkOps(f.Body, func(op Op) {
		if v, isIf := op.(*IfOp); isIf {
			joins = append(joins, v.FaintJoin)
		}
	})
	return names, joins
}

func TestFaintLocalsAndJoins(t *testing.T) {
	const ladder = `if (s[0] > 3) { x = x + 1; } else { x = x - 1; }`
	cases := []struct {
		name  string
		body  string
		faint string // comma-separated faint locals; n is unused unless read
		joins []bool
	}{
		{"ladder", `int x = 0; ` + ladder + ` out[0] = s[1]; return 0;`,
			"n,x", []bool{true}},
		{"chain through faint locals", `int x = 0; int y = 0; ` + ladder + ` y = x * 2; return 0;`,
			"n,x,y", []bool{true}},
		{"scalar param written in arms", `if (s[0] > 3) { n = n + 1; } else { n = 0; } return 0;`,
			"n", []bool{true}},
		{"declarations, ++ and empty ops", `int x = 0; if (s[0] > 3) { int t = n; x = t; } else { x++; ; } return 0;`,
			"n,t,x", []bool{true}},
		{"relevant reads are fine", `int x = 0; if (s[0] > 3) { x = n * 2; } else { x = n; } return n;`,
			"x", []bool{true}},

		// Relevance: each use below makes x relevant, so the ladder forks.
		{"condition", `int x = 0; ` + ladder + ` if (x > 2) { out[0] = 1; } return 0;`,
			"n", []bool{false, false}},
		{"loop condition", `int x = 0; ` + ladder + ` while (x < 2) { x = x + 1; } return 0;`,
			"n", []bool{false}},
		{"switch tag", `int x = 0; ` + ladder + ` switch (x) { case 1: out[0] = 1; } return 0;`,
			"n", []bool{false}},
		{"index", `int x = 0; ` + ladder + ` out[x] = 1; return 0;`,
			"n", []bool{false}},
		{"call argument", `int x = 0; ` + ladder + ` g(x); return 0;`,
			"n", []bool{false}},
		{"return", `int x = 0; ` + ladder + ` return x;`,
			"n", []bool{false}},
		{"out write", `int x = 0; ` + ladder + ` out[0] = x; return 0;`,
			"n", []bool{false}},
		{"address taken", `int x = 0; int *p = &x; ` + ladder + ` return 0;`,
			"n", []bool{false}},
		{"through a chain", `int x = 0; int y = 0; ` + ladder + ` y = x + 1; out[0] = y; return 0;`,
			"n", []bool{false}},
		{"compound assignment", `int x = 0; int y = 0; ` + ladder + ` y += x; return y;`,
			"n", []bool{false}},
		{"nested assignment", `int x = 0; int y = 0; ` + ladder + ` y = (x = x + 1) + 1; return 0;`,
			"n,y", []bool{false}},
		{"shadowed name", `int x = 0; ` + ladder + ` { int x = 5; out[0] = x; } return 0;`,
			"n", []bool{false}},
		{"shadowed global", `int gx = 0; if (s[0] > 3) { gx = gx + 1; } else { gx = gx - 1; } return 0;`,
			"n", []bool{false}},
		{"global", `if (s[0] > 3) { g0 = 1; } else { g0 = 2; } return 0;`,
			"n", []bool{false}},
		{"pointer local", `int *q = out; if (s[0] > 3) { q = out; } else { q = s; } return 0;`,
			"n", []bool{false}},

		// Eligibility: x is faint in every case, but the arms disqualify.
		{"unequal cost", `int x = 0; if (s[0] > 3) { x = 1; } else { x = 2; x = 3; } return 0;`,
			"n,x", []bool{false}},
		{"block against bare statement", `int x = 0; if (s[0] > 3) { x = 1; } else x = 2; return 0;`,
			"n,x", []bool{false}},
		{"missing else", `int x = 0; if (s[0] > 3) { x = x + 1; } return 0;`,
			"n,x", []bool{false}},
		{"call in an arm", `int x = 0; if (s[0] > 3) { x = h(1); } else { x = 2; } return 0;`,
			"n,x", []bool{false}},
		{"index in an arm", `int x = 0; if (s[0] > 3) { x = s[1]; } else { x = 2; } return 0;`,
			"n,x", []bool{false}},
		{"pointer read in an arm", `int x = 0; if (s[0] > 3) { x = 1; } else { x = *s; } return 0;`,
			"n,x", []bool{false}},
		{"nested control flow", `int x = 0; if (s[0] > 3) { if (s[1] > 0) x = 1; } else { x = 2; x = 3; } return 0;`,
			"n,x", []bool{false, false}},
		{"store in an arm", `int x = 0; if (s[0] > 3) { out[0] = 1; } else { x = 2; } return 0;`,
			"n,x", []bool{false}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := "int g0;\nint gx;\nint g(int v);\nint h(int v) { return v; }\n" +
				"int f(int *s, int *out, int n) {\n" + c.body + "\n}\n"
			faint, joins := faintOf(t, src, "f")
			if got := strings.Join(faint, ","); got != c.faint {
				t.Errorf("faint = %q, want %q", got, c.faint)
			}
			if len(joins) != len(c.joins) {
				t.Fatalf("ifs = %v, want %v", joins, c.joins)
			}
			for i := range joins {
				if joins[i] != c.joins[i] {
					t.Errorf("if %d: FaintJoin = %v, want %v", i, joins[i], c.joins[i])
				}
			}
		})
	}
}

// TestFaintJoinRejectsNotes: a note hook may read any variable, so a
// function with a NoteOp has no faint locals, and an arm holding one is
// never a faint join.
func TestFaintJoinRejectsNotes(t *testing.T) {
	x := &minic.IdentExpr{Name: "x"}
	write := func(v int64) Op {
		return &ExprOp{X: &minic.AssignExpr{LHS: x, RHS: &minic.IntLitExpr{V: v}}}
	}
	ifOp := &IfOp{
		Cond: &minic.IdentExpr{Name: "c"},
		Then: &BlockOp{Ops: []Op{&NoteOp{Data: "then"}, write(1)}},
		Else: &BlockOp{Ops: []Op{&NoteOp{Data: "else"}, write(2)}},
	}
	f := &Func{
		Name:   "f",
		Params: []*minic.VarDecl{{Name: "c", Type: minic.Basic{Kind: minic.Int}}},
		Body: &BlockOp{Ops: []Op{
			&DeclOp{Decls: []*minic.VarDecl{{Name: "x", Type: minic.Basic{Kind: minic.Int}}}},
			ifOp,
		}},
	}
	if faint, _ := analyzeLocals(f, nil); len(faint) != 0 {
		t.Errorf("faint = %v, want none in a function with notes", faint)
	}
	markFaintJoins(f, nil)
	if ifOp.FaintJoin {
		t.Error("an if whose arms hold notes was marked a faint join")
	}
}
