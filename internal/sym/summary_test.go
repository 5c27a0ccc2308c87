package sym

import (
	"testing"
)

// skel builds a skeleton from an expression over two placeholder symbols.
func skelFixture(t *testing.T) (*SumExpr, *Builder, Expr) {
	t.Helper()
	b := newTestBuilder()
	p0 := b.FreshPublic("x")
	p1 := b.FreshPublic("y")
	// (x + y) * 3 - (x + y)  — shares the (x + y) subtree.
	sum := NewBinary(OpAdd, p0, p1)
	e := NewBinary(OpSub, NewBinary(OpMul, sum, IntConst{V: 3}), sum)
	s, err := Abstract(e, map[int]int{p0.ID: 0, p1.ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s, b, e
}

func TestAbstractInstantiateRoundtrip(t *testing.T) {
	s, b, orig := skelFixture(t)
	// Instantiating with the original placeholders must rebuild the exact
	// expression (folds replay identically).
	got, err := s.Instantiate([]Expr{b.Lookup(1), b.Lookup(2)})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, orig) {
		t.Errorf("roundtrip: got %s, want %s", got, orig)
	}
}

func TestAbstractSharingPreserved(t *testing.T) {
	s, _, _ := skelFixture(t)
	// The shared (x + y) subtree must be one skeleton node, not two.
	if s.Kind != SumBin || s.Args[0].Kind != SumBin {
		t.Fatalf("unexpected skeleton shape")
	}
	mul := s.Args[0]
	if mul.Args[0] != s.Args[1] {
		t.Errorf("shared subtree duplicated in skeleton")
	}
}

func TestAbstractRejectsFreeSymbol(t *testing.T) {
	b := newTestBuilder()
	p := b.FreshPublic("x")
	stray := b.FreshSecret("conjured")
	e := NewBinary(OpAdd, p, stray)
	if _, err := Abstract(e, map[int]int{p.ID: 0}); err == nil {
		t.Errorf("free symbol accepted")
	}
}

func TestInstantiateSubstitutesArguments(t *testing.T) {
	b := newTestBuilder()
	p := b.FreshPublic("x")
	s, err := Abstract(NewBinary(OpMul, p, IntConst{V: 2}), map[int]int{p.ID: 0})
	if err != nil {
		t.Fatal(err)
	}
	sec := b.FreshSecret("s")
	got, err := s.Instantiate([]Expr{NewBinary(OpAdd, sec, IntConst{V: 1})})
	if err != nil {
		t.Fatal(err)
	}
	want := NewBinary(OpMul, NewBinary(OpAdd, sec, IntConst{V: 1}), IntConst{V: 2})
	if !Equal(got, want) {
		t.Errorf("got %s, want %s", got, want)
	}
	if _, err := s.Instantiate(nil); err == nil {
		t.Errorf("out-of-range slot accepted")
	}
}

func TestArgSafe(t *testing.T) {
	b := newTestBuilder()
	x := b.FreshSecret("x")
	cases := []struct {
		e    Expr
		want bool
	}{
		{x, true},
		{IntConst{V: 7}, true},
		{NewBinary(OpAdd, x, IntConst{V: 1}), true},
		{FloatConst{V: 1.5}, false},
		{NewBinary(OpAdd, x, FloatConst{V: 1}), false},
		{NewBinary(OpLt, x, IntConst{V: 3}), false},
		{NewUnary(OpLNot, x), false},
		{NewCall("sqrt", []Expr{x}), false},
	}
	for _, c := range cases {
		if got := ArgSafe(c.e); got != c.want {
			t.Errorf("ArgSafe(%s) = %v, want %v", c.e, got, c.want)
		}
	}
}
