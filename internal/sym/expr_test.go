package sym

import (
	"testing"

	"privacyscope/internal/taint"
)

func newTestBuilder() *Builder {
	var alloc taint.Allocator
	return NewBuilder(&alloc)
}

func TestBuilderNaming(t *testing.T) {
	b := newTestBuilder()
	s1 := b.FreshSecret("")
	s2 := b.FreshSecret("")
	if s1.Name != "s1" || s2.Name != "s2" {
		t.Errorf("secret names = %q, %q; want s1, s2", s1.Name, s2.Name)
	}
	if !s1.Secret() || !s2.Secret() {
		t.Error("secrets must carry tags")
	}
	if s1.Tag == s2.Tag {
		t.Error("secret tags must be distinct")
	}
	named := b.FreshSecret("ratings[0]")
	if named.Name != "ratings[0]" {
		t.Errorf("named secret = %q", named.Name)
	}
	pub := b.FreshPublic("n")
	if pub.Secret() {
		t.Error("public symbol must not be secret")
	}
	if got := b.Lookup(s1.ID); got != s1 {
		t.Error("Lookup mismatch")
	}
	if b.Lookup(999) != nil {
		t.Error("Lookup of unknown ID should be nil")
	}
	if len(b.Symbols()) != 4 {
		t.Errorf("Symbols len = %d, want 4", len(b.Symbols()))
	}
}

func TestTaintOfDerivation(t *testing.T) {
	b := newTestBuilder()
	s1 := b.FreshSecret("")
	s2 := b.FreshSecret("")
	pub := b.FreshPublic("p")

	tests := []struct {
		name string
		e    Expr
		want taint.Label
	}{
		{"const", IntConst{V: 5}, taint.Bottom()},
		{"public-sym", pub, taint.Bottom()},
		{"one-secret", s1, taint.Single(s1.Tag)},
		{"scaled-secret", NewBinary(OpMul, IntConst{V: 2}, s1), taint.Single(s1.Tag)},
		{"two-secrets", NewBinary(OpAdd, s1, s2), taint.Top()},
		{"secret-plus-public", NewBinary(OpAdd, s1, pub), taint.Single(s1.Tag)},
		{"same-secret-twice", NewBinary(OpAdd, s1, NewBinary(OpMul, IntConst{V: 3}, s1)), taint.Single(s1.Tag)},
		{
			"example1-x",
			NewBinary(OpAdd,
				NewBinary(OpMul, IntConst{V: 2}, s1),
				NewBinary(OpMul, IntConst{V: 3}, s2)),
			taint.Top(),
		},
	}
	// The walk over a structurally built node and the label an arena
	// stores when it mints the node must agree.
	in := NewInterner()
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := TaintOf(tt.e); !got.Equal(tt.want) {
				t.Errorf("TaintOf(%s) = %v, want %v", tt.e, got, tt.want)
			}
			if got := TaintOf(in.Intern(tt.e)); !got.Equal(tt.want) {
				t.Errorf("TaintOf(interned %s) = %v, want %v", tt.e, got, tt.want)
			}
		})
	}
}

func TestStringRendering(t *testing.T) {
	b := newTestBuilder()
	s1 := b.FreshSecret("")
	e := NewBinary(OpMul, IntConst{V: 2}, s1)
	if e.String() != "(2 * s1)" {
		t.Errorf("String = %q", e.String())
	}
	u := NewUnary(OpLNot, s1)
	if u.String() != "!s1" {
		t.Errorf("unary String = %q", u.String())
	}
}

func TestFreeSymbolsOrderedDistinct(t *testing.T) {
	b := newTestBuilder()
	s1 := b.FreshSecret("")
	s2 := b.FreshSecret("")
	e := NewBinary(OpAdd, NewBinary(OpAdd, s2, s1), s1)
	syms := FreeSymbols(e)
	if len(syms) != 2 || syms[0] != s1 || syms[1] != s2 {
		t.Errorf("FreeSymbols = %v", syms)
	}
}

func TestEqualAndKey(t *testing.T) {
	b := newTestBuilder()
	s := b.FreshSecret("")
	e1 := NewBinary(OpAdd, s, IntConst{V: 4})
	e2 := NewBinary(OpAdd, s, IntConst{V: 4})
	e3 := NewBinary(OpAdd, s, IntConst{V: 5})
	if !Equal(e1, e2) {
		t.Error("structurally equal expressions must be Equal")
	}
	if Equal(e1, e3) {
		t.Error("different constants must not be Equal")
	}
	if Key(e1) != Key(e2) {
		t.Error("equal expressions must share a Key")
	}
	if Key(e1) == Key(e3) {
		t.Error("different expressions must have different Keys")
	}
}

func TestConstantFolding(t *testing.T) {
	tests := []struct {
		name string
		e    Expr
		want Expr
	}{
		{"add", NewBinary(OpAdd, IntConst{V: 2}, IntConst{V: 3}), IntConst{V: 5}},
		{"mul", NewBinary(OpMul, IntConst{V: 4}, IntConst{V: 5}), IntConst{V: 20}},
		{"div", NewBinary(OpDiv, IntConst{V: 7}, IntConst{V: 2}), IntConst{V: 3}},
		{"rem", NewBinary(OpRem, IntConst{V: 7}, IntConst{V: 2}), IntConst{V: 1}},
		{"eq-true", NewBinary(OpEq, IntConst{V: 3}, IntConst{V: 3}), IntConst{V: 1}},
		{"eq-false", NewBinary(OpEq, IntConst{V: 3}, IntConst{V: 4}), IntConst{V: 0}},
		{"lt", NewBinary(OpLt, IntConst{V: 3}, IntConst{V: 4}), IntConst{V: 1}},
		{"neg", NewUnary(OpNeg, IntConst{V: 3}), IntConst{V: -3}},
		{"lnot-zero", NewUnary(OpLNot, IntConst{V: 0}), IntConst{V: 1}},
		{"lnot-nonzero", NewUnary(OpLNot, IntConst{V: 9}), IntConst{V: 0}},
		{"float-add", NewBinary(OpAdd, FloatConst{V: 1.5}, FloatConst{V: 2.5}), FloatConst{V: 4}},
		{"int-float-mix", NewBinary(OpMul, IntConst{V: 2}, FloatConst{V: 1.5}), FloatConst{V: 3}},
		{"overflow-wraps", NewBinary(OpAdd, IntConst{V: 2147483647}, IntConst{V: 1}), IntConst{V: -2147483648}},
		{"shl", NewBinary(OpShl, IntConst{V: 1}, IntConst{V: 4}), IntConst{V: 16}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !Equal(tt.e, tt.want) {
				t.Errorf("got %s, want %s", tt.e, tt.want)
			}
		})
	}
}

func TestDivideByZeroStaysSymbolic(t *testing.T) {
	e := NewBinary(OpDiv, IntConst{V: 5}, IntConst{V: 0})
	if _, ok := e.(IntConst); ok {
		t.Error("x/0 must not fold to a constant")
	}
}

func TestAlgebraicIdentities(t *testing.T) {
	b := newTestBuilder()
	s := b.FreshSecret("")
	zero, one := IntConst{V: 0}, IntConst{V: 1}
	tests := []struct {
		name string
		e    Expr
		want Expr
	}{
		{"x+0", NewBinary(OpAdd, s, zero), s},
		{"0+x", NewBinary(OpAdd, zero, s), s},
		{"x-0", NewBinary(OpSub, s, zero), s},
		{"x-x", NewBinary(OpSub, s, s), zero},
		{"x*1", NewBinary(OpMul, s, one), s},
		{"1*x", NewBinary(OpMul, one, s), s},
		{"x*0", NewBinary(OpMul, s, zero), zero},
		{"x/1", NewBinary(OpDiv, s, one), s},
		{"x^x", NewBinary(OpXor, s, s), zero},
		{"x^0", NewBinary(OpXor, s, zero), s},
		{"x&0", NewBinary(OpAnd, s, zero), zero},
		{"x|0", NewBinary(OpOr, s, zero), s},
		{"x==x", NewBinary(OpEq, s, s), one},
		{"x!=x", NewBinary(OpNe, s, s), zero},
		{"x&&0", NewBinary(OpLAnd, s, zero), zero},
		{"1||x", NewBinary(OpLOr, one, s), one},
		{"neg-neg", NewUnary(OpNeg, NewUnary(OpNeg, s)), s},
		{"not-not", NewUnary(OpNot, NewUnary(OpNot, s)), s},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !Equal(tt.e, tt.want) {
				t.Errorf("got %s, want %s", tt.e, tt.want)
			}
		})
	}
}

func TestTruthNormalization(t *testing.T) {
	b := newTestBuilder()
	s := b.FreshSecret("")
	cmp := NewBinary(OpEq, s, IntConst{V: 3})
	if Truth(cmp) != cmp {
		t.Error("comparison must pass through Truth unchanged")
	}
	tr := Truth(s)
	bin, ok := tr.(*Binary)
	if !ok || bin.Op != OpNe {
		t.Errorf("Truth(s) = %s, want (s != 0)", tr)
	}
}

func TestNegateFlipsComparisons(t *testing.T) {
	b := newTestBuilder()
	s := b.FreshSecret("")
	tests := []struct {
		in     Op
		wantOp Op
	}{
		{OpEq, OpNe}, {OpNe, OpEq}, {OpLt, OpGe}, {OpLe, OpGt}, {OpGt, OpLe}, {OpGe, OpLt},
	}
	for _, tt := range tests {
		e := NewBinary(tt.in, s, IntConst{V: 3})
		n := Negate(e)
		bin, ok := n.(*Binary)
		if !ok || bin.Op != tt.wantOp {
			t.Errorf("Negate(%v) = %s, want op %v", tt.in, n, tt.wantOp)
		}
	}
	// Negating a non-comparison wraps in !(e != 0).
	n := Negate(s)
	if _, ok := n.(*Unary); !ok {
		t.Errorf("Negate(s) = %s, want unary", n)
	}
	// Double negation of a comparison returns the original operator.
	e := NewBinary(OpEq, s, IntConst{V: 0})
	nn := Negate(Negate(e))
	if !Equal(nn, e) {
		t.Errorf("Negate∘Negate = %s, want %s", nn, e)
	}
}

func TestFloatFoldingMatrix(t *testing.T) {
	a, b := FloatConst{V: 7.5}, FloatConst{V: 2.5}
	tests := []struct {
		op   Op
		want Expr
	}{
		{OpAdd, FloatConst{V: 10}},
		{OpSub, FloatConst{V: 5}},
		{OpMul, FloatConst{V: 18.75}},
		{OpDiv, FloatConst{V: 3}},
		{OpEq, IntConst{V: 0}},
		{OpNe, IntConst{V: 1}},
		{OpLt, IntConst{V: 0}},
		{OpLe, IntConst{V: 0}},
		{OpGt, IntConst{V: 1}},
		{OpGe, IntConst{V: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.op.String(), func(t *testing.T) {
			got := NewBinary(tt.op, a, b)
			if !Equal(got, tt.want) {
				t.Errorf("%v: got %s, want %s", tt.op, got, tt.want)
			}
		})
	}
	// Division by float zero stays symbolic.
	if _, ok := NewBinary(OpDiv, a, FloatConst{V: 0}).(*Binary); !ok {
		t.Error("x/0.0 must stay symbolic")
	}
	if (FloatConst{V: 2.5}).String() != "2.5" {
		t.Error("FloatConst String wrong")
	}
	if !OpLAnd.IsLogical() || !OpLOr.IsLogical() || OpAdd.IsLogical() {
		t.Error("IsLogical wrong")
	}
}

func TestEvalFloatBinaryMatrix(t *testing.T) {
	b := newTestBuilder()
	s := b.FreshSecret("")
	bind := Binding{s.ID: FloatVal(4)}
	tests := []struct {
		op   Op
		want Value
	}{
		{OpAdd, FloatVal(6)},
		{OpSub, FloatVal(2)},
		{OpMul, FloatVal(8)},
		{OpDiv, FloatVal(2)},
		{OpEq, IntVal(0)},
		{OpNe, IntVal(1)},
		{OpLt, IntVal(0)},
		{OpLe, IntVal(0)},
		{OpGt, IntVal(1)},
		{OpGe, IntVal(1)},
		{OpLAnd, IntVal(1)},
		{OpLOr, IntVal(1)},
	}
	for _, tt := range tests {
		t.Run(tt.op.String(), func(t *testing.T) {
			got, err := Eval(&Binary{Op: tt.op, L: s, R: FloatConst{V: 2}}, bind)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(tt.want) {
				t.Errorf("%v: got %v, want %v", tt.op, got, tt.want)
			}
		})
	}
	// Float division by zero errors; bad float op errors.
	if _, err := Eval(&Binary{Op: OpDiv, L: s, R: FloatConst{V: 0}}, bind); err == nil {
		t.Error("float div by zero must error")
	}
	if _, err := Eval(&Binary{Op: OpRem, L: s, R: FloatConst{V: 2}}, bind); err == nil {
		t.Error("float %% must error")
	}
	// Unary on float values.
	neg, err := Eval(&Unary{Op: OpNeg, X: s}, bind)
	if err != nil || neg.AsFloat() != -4 {
		t.Errorf("neg = %v, %v", neg, err)
	}
	not, err := Eval(&Unary{Op: OpLNot, X: s}, bind)
	if err != nil || not.AsInt() != 0 {
		t.Errorf("lnot = %v, %v", not, err)
	}
}

func TestContainsFloatThroughCall(t *testing.T) {
	b := newTestBuilder()
	s := b.FreshSecret("")
	// x - x with a Call inside must NOT fold to 0 (float semantics).
	c := NewCall("sqrt", []Expr{s})
	e := NewBinary(OpSub, c, c)
	if _, ok := e.(IntConst); ok {
		t.Error("float-bearing x-x must not fold to integer 0")
	}
}

// The identities gated on containsFloat must cost a DAG's distinct nodes:
// x = x*x + x forty times over has 2^40 root-to-leaf paths.
func TestFloatGatedIdentitiesOnSharedDAG(t *testing.T) {
	b := newTestBuilder()
	var x Expr = b.FreshSecret("")
	for i := 0; i < 40; i++ {
		x = NewBinary(OpAdd, NewBinary(OpMul, x, x), x)
	}
	if got := NewBinary(OpSub, x, x); got != (IntConst{V: 0}) {
		t.Errorf("x - x = %s, want 0", Render(got, 40))
	}
	if got := NewBinary(OpMul, x, IntConst{V: 0}); got != (IntConst{V: 0}) {
		t.Errorf("x * 0 = %s, want 0", Render(got, 40))
	}
	if got := NewBinary(OpEq, x, x); got != (IntConst{V: 1}) {
		t.Errorf("x == x = %s, want 1", Render(got, 40))
	}
	f := NewBinary(OpMul, x, FloatConst{V: 0.5})
	if _, ok := NewBinary(OpMul, f, IntConst{V: 0}).(*Binary); !ok {
		t.Error("a float x * 0 must stay symbolic: x may be Inf or NaN")
	}
	if _, ok := NewBinary(OpEq, f, f).(*Binary); !ok {
		t.Error("a float x == x must stay symbolic: x may be NaN")
	}
}
