package sym

import (
	"strings"
	"testing"
)

const cut = " …(truncated)"

// TestRenderBoundedOnSharedDAG: a depth-64 doubling DAG has 65 distinct
// nodes but a String of 2^64 leaves. Render with a limit writes only the
// first limit bytes of that String, less its outer parenthesis.
func TestRenderBoundedOnSharedDAG(t *testing.T) {
	doubling := func(depth int) Expr {
		var e Expr = &Symbol{ID: 1, Name: "s1", Tag: 1}
		for i := 0; i < depth; i++ {
			e = &Binary{Op: OpAdd, L: e, R: e}
		}
		return e
	}
	full := doubling(6).String()
	if got := Render(doubling(6), 0); got != full[1:len(full)-1] {
		t.Fatalf("unbounded Render = %q, want String without its outer pair %q", got, full[1:len(full)-1])
	}
	const limit = 160
	got := Render(doubling(64), limit)
	// Past its leading parentheses the depth-64 rendering reads as the
	// depth-10 one does, whose String is short enough to build in full.
	if want := strings.Repeat("(", 54) + doubling(10).String()[1:]; got != want[:limit]+cut {
		t.Errorf("Render(depth 64, %d) = %q, want %q", limit, got, want[:limit]+cut)
	}
}

// TestRenderMatchesString: Render is String minus the parentheses of a
// top-level binary operation, for every node kind, and cuts only a
// rendering longer than its limit.
func TestRenderMatchesString(t *testing.T) {
	s := &Symbol{ID: 1, Name: "secrets[0]", Tag: 1}
	sum := &Binary{Op: OpAdd, L: s, R: IntConst{V: 4}}
	cases := []struct {
		e          Expr
		str, shown string
	}{
		{IntConst{V: -3}, "-3", "-3"},
		{FloatConst{V: 0.5}, "0.5", "0.5"},
		{s, "secrets[0]", "secrets[0]"},
		{sum, "(secrets[0] + 4)", "secrets[0] + 4"},
		{&Binary{Op: OpMul, L: sum, R: sum}, "((secrets[0] + 4) * (secrets[0] + 4))", "(secrets[0] + 4) * (secrets[0] + 4)"},
		{&Unary{Op: OpNeg, X: sum}, "-(secrets[0] + 4)", "-(secrets[0] + 4)"},
		{&Call{Name: "sqrt", Args: []Expr{sum, s}}, "sqrt((secrets[0] + 4), secrets[0])", "sqrt((secrets[0] + 4), secrets[0])"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.str {
			t.Errorf("String = %q, want %q", got, c.str)
		}
		if got := Render(c.e, 0); got != c.shown {
			t.Errorf("Render(%s) = %q, want %q", c.str, got, c.shown)
		}
		if got := Render(c.e, len(c.shown)); got != c.shown {
			t.Errorf("Render(%s, exact length) = %q, want %q uncut", c.str, got, c.shown)
		}
		if got := Render(c.e, 1); len(c.shown) > 1 && got != c.shown[:1]+cut {
			t.Errorf("Render(%s, 1) = %q, want %q", c.str, got, c.shown[:1]+cut)
		}
	}
}
