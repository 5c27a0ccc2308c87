package sym

import (
	"testing"

	"privacyscope/internal/taint"
)

func TestCallPreservesTaint(t *testing.T) {
	b := newTestBuilder()
	s := b.FreshSecret("")
	e := NewCall("sqrt", []Expr{NewBinary(OpMul, IntConst{V: 2}, s)})
	if !TaintOf(e).Equal(taint.Single(s.Tag)) {
		t.Errorf("TaintOf(sqrt(2*s1)) = %v, want t1", TaintOf(e))
	}
	if e.String() != "sqrt((2 * s1))" {
		t.Errorf("String = %q", e.String())
	}
}

func TestCallConstantFolding(t *testing.T) {
	tests := []struct {
		name string
		args []Expr
		want float64
	}{
		{"sqrt", []Expr{IntConst{V: 16}}, 4},
		{"fabs", []Expr{FloatConst{V: -2.5}}, 2.5},
		{"pow", []Expr{IntConst{V: 2}, IntConst{V: 10}}, 1024},
		{"floor", []Expr{FloatConst{V: 1.9}}, 1},
		{"ceil", []Expr{FloatConst{V: 1.1}}, 2},
		{"exp", []Expr{IntConst{V: 0}}, 1},
		{"log", []Expr{IntConst{V: 1}}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := NewCall(tt.name, tt.args)
			c, ok := e.(FloatConst)
			if !ok {
				t.Fatalf("NewCall did not fold: %s", e)
			}
			if c.V != tt.want {
				t.Errorf("= %g, want %g", c.V, tt.want)
			}
		})
	}
}

func TestCallDomainErrorsStaySymbolic(t *testing.T) {
	e := NewCall("sqrt", []Expr{IntConst{V: -1}})
	if _, ok := e.(*Call); !ok {
		t.Errorf("sqrt(-1) must stay symbolic, got %T", e)
	}
	u := NewCall("mystery", []Expr{IntConst{V: 1}})
	if _, ok := u.(*Call); !ok {
		t.Errorf("unknown function must stay symbolic, got %T", u)
	}
}

func TestCallEqualKeySubstituteEval(t *testing.T) {
	b := newTestBuilder()
	s := b.FreshSecret("")
	e1 := NewCall("sqrt", []Expr{s})
	e2 := NewCall("sqrt", []Expr{s})
	e3 := NewCall("fabs", []Expr{s})
	if !Equal(e1, e2) || Equal(e1, e3) {
		t.Error("Call equality wrong")
	}
	if Key(e1) != Key(e2) || Key(e1) == Key(e3) {
		t.Error("Call keys wrong")
	}
	sub := Substitute(e1, Binding{s.ID: IntVal(25)})
	c, ok := sub.(FloatConst)
	if !ok || c.V != 5 {
		t.Errorf("Substitute = %v", sub)
	}
	v, err := Eval(e1, Binding{s.ID: IntVal(9)})
	if err != nil || v.AsFloat() != 3 {
		t.Errorf("Eval = %v, %v", v, err)
	}
	if _, err := Eval(e3, Binding{}); err == nil {
		t.Error("Eval with unbound symbol must fail")
	}
}

func TestCallNotAffine(t *testing.T) {
	b := newTestBuilder()
	s := b.FreshSecret("")
	if a := ExtractAffine(NewCall("sqrt", []Expr{s})); a != nil {
		t.Error("sqrt(s) must not be affine")
	}
}
