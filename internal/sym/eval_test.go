package sym

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestEvalBasics(t *testing.T) {
	b := newTestBuilder()
	s := b.FreshSecret("")
	bind := Binding{s.ID: IntVal(10)}

	tests := []struct {
		name string
		e    Expr
		want Value
	}{
		{"const", IntConst{V: 5}, IntVal(5)},
		{"float-const", FloatConst{V: 2.5}, FloatVal(2.5)},
		{"symbol", s, IntVal(10)},
		{"affine", &Binary{Op: OpAdd, L: &Binary{Op: OpMul, L: IntConst{V: 2}, R: s}, R: IntConst{V: 1}}, IntVal(21)},
		{"cmp-true", &Binary{Op: OpGt, L: s, R: IntConst{V: 5}}, IntVal(1)},
		{"cmp-false", &Binary{Op: OpLt, L: s, R: IntConst{V: 5}}, IntVal(0)},
		{"neg", &Unary{Op: OpNeg, X: s}, IntVal(-10)},
		{"lnot", &Unary{Op: OpLNot, X: s}, IntVal(0)},
		{"mixed-float", &Binary{Op: OpMul, L: s, R: FloatConst{V: 0.5}}, FloatVal(5)},
		{"rem", &Binary{Op: OpRem, L: s, R: IntConst{V: 3}}, IntVal(1)},
		{"shift", &Binary{Op: OpShl, L: s, R: IntConst{V: 2}}, IntVal(40)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Eval(tt.e, bind)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(tt.want) {
				t.Errorf("Eval(%s) = %v, want %v", tt.e, got, tt.want)
			}
		})
	}
}

func TestEvalErrors(t *testing.T) {
	b := newTestBuilder()
	s := b.FreshSecret("")
	if _, err := Eval(s, Binding{}); !errors.Is(err, ErrUnbound) {
		t.Errorf("unbound symbol err = %v", err)
	}
	e := &Binary{Op: OpDiv, L: IntConst{V: 1}, R: IntConst{V: 0}}
	if _, err := Eval(e, Binding{}); !errors.Is(err, ErrDivideByZero) {
		t.Errorf("div-by-zero err = %v", err)
	}
	m := &Binary{Op: OpRem, L: IntConst{V: 1}, R: IntConst{V: 0}}
	if _, err := Eval(m, Binding{}); !errors.Is(err, ErrDivideByZero) {
		t.Errorf("rem-by-zero err = %v", err)
	}
}

func TestEvalShortCircuit(t *testing.T) {
	b := newTestBuilder()
	s := b.FreshSecret("") // deliberately unbound

	and := &Binary{Op: OpLAnd, L: IntConst{V: 0}, R: s}
	got, err := Eval(and, Binding{})
	if err != nil || !got.Equal(IntVal(0)) {
		t.Errorf("0 && s = %v, %v; want 0", got, err)
	}
	or := &Binary{Op: OpLOr, L: IntConst{V: 1}, R: s}
	got, err = Eval(or, Binding{})
	if err != nil || !got.Equal(IntVal(1)) {
		t.Errorf("1 || s = %v, %v; want 1", got, err)
	}
}

func TestValueHelpers(t *testing.T) {
	if !IntVal(0).IsZero() || IntVal(1).IsZero() {
		t.Error("IsZero on ints wrong")
	}
	if !FloatVal(0).IsZero() || FloatVal(0.5).IsZero() {
		t.Error("IsZero on floats wrong")
	}
	if IntVal(3).AsFloat() != 3 || FloatVal(3.7).AsInt() != 3 {
		t.Error("conversions wrong")
	}
	if !IntVal(3).Equal(FloatVal(3)) {
		t.Error("int 3 must equal float 3")
	}
	if IntVal(3).String() != "3" || FloatVal(1.5).String() != "1.5" {
		t.Error("String wrong")
	}
}

func TestSubstitute(t *testing.T) {
	b := newTestBuilder()
	s1 := b.FreshSecret("")
	s2 := b.FreshSecret("")
	e := &Binary{Op: OpAdd, L: &Binary{Op: OpMul, L: IntConst{V: 2}, R: s1}, R: s2}

	partial := Substitute(e, Binding{s1.ID: IntVal(5)})
	// 2*5 + s2 = 10 + s2; s2 remains free.
	syms := FreeSymbols(partial)
	if len(syms) != 1 || syms[0] != s2 {
		t.Errorf("partial substitution free syms = %v", syms)
	}

	full := Substitute(e, Binding{s1.ID: IntVal(5), s2.ID: IntVal(1)})
	c, ok := full.(IntConst)
	if !ok || c.V != 11 {
		t.Errorf("full substitution = %s, want 11", full)
	}
}

// Property: folding (via NewBinary) and direct evaluation agree on concrete
// integer expressions for non-trapping operators.
func TestFoldEvalAgreement(t *testing.T) {
	ops := []Op{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLAnd, OpLOr}
	f := func(a, b int32, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		folded := NewBinary(op, IntConst{V: a}, IntConst{V: b})
		fc, ok := folded.(IntConst)
		if !ok {
			return false
		}
		evaluated, err := ApplyBinary(op, IntVal(a), IntVal(b))
		if err != nil {
			return false
		}
		return evaluated.I == fc.V
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Substitute with a full binding agrees with Eval.
func TestSubstituteEvalAgreement(t *testing.T) {
	f := func(x, y int16) bool {
		b := newTestBuilder()
		s1 := b.FreshSecret("")
		s2 := b.FreshSecret("")
		e := &Binary{
			Op: OpAdd,
			L:  &Binary{Op: OpMul, L: s1, R: IntConst{V: 3}},
			R:  &Binary{Op: OpSub, L: s2, R: IntConst{V: 7}},
		}
		bind := Binding{s1.ID: IntVal(int32(x)), s2.ID: IntVal(int32(y))}
		sub := Substitute(e, bind)
		c, ok := sub.(IntConst)
		if !ok {
			return false
		}
		ev, err := Eval(e, bind)
		if err != nil {
			return false
		}
		return ev.I == c.V
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
