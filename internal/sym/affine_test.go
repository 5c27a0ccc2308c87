package sym

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestExtractAffineBasics(t *testing.T) {
	b := newTestBuilder()
	s1 := b.FreshSecret("")
	s2 := b.FreshSecret("")

	// 2*s1 + 3*s2 + 7
	e := NewBinary(OpAdd,
		NewBinary(OpAdd,
			NewBinary(OpMul, IntConst{V: 2}, s1),
			NewBinary(OpMul, IntConst{V: 3}, s2)),
		IntConst{V: 7})
	a := ExtractAffine(e)
	if a == nil {
		t.Fatal("affine extraction failed")
	}
	want := []Term{{s1, 2}, {s2, 3}}
	if a.Const != 7 || len(a.Terms()) != 2 || a.Terms()[0] != want[0] || a.Terms()[1] != want[1] {
		t.Errorf("form = %+v", a)
	}
}

func TestExtractAffineCancellation(t *testing.T) {
	b := newTestBuilder()
	s := b.FreshSecret("")
	// (s + 5) - s = 5 — coefficient cancels to zero.
	e := &Binary{Op: OpSub, L: &Binary{Op: OpAdd, L: s, R: IntConst{V: 5}}, R: s}
	a := ExtractAffine(e)
	if a == nil {
		t.Fatal("extraction failed")
	}
	if !a.IsConstant() || a.Const != 5 {
		t.Errorf("form = %+v, want constant 5", a)
	}
}

func TestExtractAffineRejectsNonLinear(t *testing.T) {
	b := newTestBuilder()
	s1 := b.FreshSecret("")
	s2 := b.FreshSecret("")
	tests := []struct {
		name string
		e    Expr
	}{
		{"sym*sym", &Binary{Op: OpMul, L: s1, R: s2}},
		{"div-by-sym", &Binary{Op: OpDiv, L: IntConst{V: 1}, R: s1}},
		{"bitand", &Binary{Op: OpAnd, L: s1, R: IntConst{V: 3}}},
		{"comparison", NewBinary(OpLt, s1, IntConst{V: 3})},
		{"lnot", NewUnary(OpLNot, s1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if a := ExtractAffine(tt.e); a != nil {
				t.Errorf("ExtractAffine(%s) = %+v, want nil", tt.e, a)
			}
		})
	}
}

func TestExtractAffineDivByConst(t *testing.T) {
	b := newTestBuilder()
	s := b.FreshSecret("")
	e := &Binary{Op: OpDiv, L: NewBinary(OpMul, IntConst{V: 4}, s), R: IntConst{V: 2}}
	a := ExtractAffine(e)
	if a == nil || len(a.Terms()) != 1 || a.Terms()[0] != (Term{s, 2}) {
		t.Fatalf("form = %+v, want coef 2", a)
	}
}

func TestInvertForExample1(t *testing.T) {
	// Paper Example 1: h1 = 2*s1 leaks; x = 2*s1 + 3*s2 does not leak
	// deterministically but is invertible given s2.
	b := newTestBuilder()
	s1 := b.FreshSecret("")
	s2 := b.FreshSecret("")

	h1 := NewBinary(OpMul, IntConst{V: 2}, s1)
	inv, ok := InvertFor(h1, s1.ID)
	if !ok {
		t.Fatal("h1 must be invertible for s1")
	}
	if !inv.Exact || inv.Scale != 2 || inv.Offset != 0 {
		t.Errorf("inversion = %+v", inv)
	}

	x := NewBinary(OpAdd, h1, NewBinary(OpMul, IntConst{V: 3}, s2))
	inv, ok = InvertFor(x, s1.ID)
	if !ok {
		t.Fatal("x must be affine in s1")
	}
	if inv.Exact {
		t.Error("x involves s2, inversion must not be Exact")
	}
	if len(inv.Masking) != 1 || inv.Masking[0] != s2 {
		t.Errorf("Masking = %v, want [s2]", inv.Masking)
	}
}

func TestInvertForListing1(t *testing.T) {
	// output[0] = secrets[0] + 101 from the paper's Listing 1.
	b := newTestBuilder()
	s0 := b.FreshSecret("secrets[0]")
	e := NewBinary(OpAdd, s0, IntConst{V: 101})
	inv, ok := InvertFor(e, s0.ID)
	if !ok || !inv.Exact {
		t.Fatalf("inversion = %+v, %v", inv, ok)
	}
	if inv.Scale != 1 || inv.Offset != 101 {
		t.Errorf("scale/offset = %g/%g, want 1/101", inv.Scale, inv.Offset)
	}
	if inv.Formula() != "secrets[0] = (observed - 101) / 1" {
		t.Errorf("Formula = %q", inv.Formula())
	}
}

func TestInvertForFailures(t *testing.T) {
	b := newTestBuilder()
	s1 := b.FreshSecret("")
	s2 := b.FreshSecret("")
	if _, ok := InvertFor(NewBinary(OpMul, s1, s2), s1.ID); ok {
		t.Error("non-linear expression must not invert")
	}
	if _, ok := InvertFor(NewBinary(OpMul, IntConst{V: 2}, s2), s1.ID); ok {
		t.Error("expression without s1 must not invert for s1")
	}
}

// Property: for a random affine expression a·s + b (a ≠ 0), InvertFor
// recovers s from the evaluated output.
func TestInversionRoundTrip(t *testing.T) {
	f := func(a int8, bb int16, secret int16) bool {
		if a == 0 {
			return true
		}
		builder := newTestBuilder()
		s := builder.FreshSecret("")
		e := NewBinary(OpAdd,
			NewBinary(OpMul, IntConst{V: int32(a)}, s),
			IntConst{V: int32(bb)})
		inv, ok := InvertFor(e, s.ID)
		if !ok || !inv.Exact {
			return false
		}
		out, err := Eval(e, Binding{s.ID: IntVal(int32(secret))})
		if err != nil {
			return false
		}
		recovered := (out.AsFloat() - inv.Offset) / inv.Scale
		return math.Abs(recovered-float64(secret)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzExtractAffine builds expression DAGs with shared subtrees from
// arbitrary bytes — sums, differences, negations, products and quotients
// by constants over symbols and FloatConst/IntConst leaves, plus nodes
// outside the affine fragment — and checks every node's form: a node with
// a non-affine node below it (or a division by zero) has none; any other
// has terms sorted by symbol ID with non-zero coefficients, and evaluates,
// at seeded points, to what a float64 evaluation of the DAG gives.
func FuzzExtractAffine(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{0x40, 0x41, 0x42, 0x03, 0x13, 0x23, 0x33, 0x07, 0x17, 0x27})
	f.Add([]byte("shared subtrees cancel: (a - a) * s"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := newTestBuilder()
		syms := []*Symbol{b.FreshSecret("s"), b.FreshPublic("p"), b.FreshPublic("q")}
		consts := []Expr{IntConst{V: 0}, IntConst{V: 1}, IntConst{V: -3}, FloatConst{V: 0.25}, FloatConst{V: 2.5}, FloatConst{V: -4}}
		pool := []Expr{syms[0], syms[1], syms[2], consts[1], consts[4]}
		affine := []bool{true, true, true, true, true}
		for i := 0; i+2 < len(data) && len(pool) < 64; i += 3 {
			l, r := int(data[i])%len(pool), int(data[i+1])%len(pool)
			c := consts[int(data[i+2]>>4)%len(consts)]
			var e Expr
			ok := affine[l]
			switch data[i+2] % 8 {
			case 0:
				e, ok = &Binary{Op: OpAdd, L: pool[l], R: pool[r]}, ok && affine[r]
			case 1:
				e, ok = &Binary{Op: OpSub, L: pool[l], R: pool[r]}, ok && affine[r]
			case 2:
				e = &Unary{Op: OpNeg, X: pool[l]}
			case 3:
				e = &Binary{Op: OpMul, L: c, R: pool[l]}
			case 4:
				e = &Binary{Op: OpMul, L: pool[l], R: c}
			case 5:
				e, ok = &Binary{Op: OpDiv, L: pool[l], R: c}, ok && c != Expr(IntConst{V: 0})
			case 6:
				e, ok = &Binary{Op: OpMul, L: syms[l%3], R: syms[r%3]}, false
			default:
				nonAffine := []Expr{
					&Binary{Op: OpDiv, L: pool[l], R: syms[r%3]},
					&Binary{Op: OpAnd, L: pool[l], R: c},
					&Binary{Op: OpLt, L: pool[l], R: pool[r]},
					&Unary{Op: OpLNot, X: pool[l]},
					&Call{Name: "sqrt", Args: []Expr{pool[l]}},
				}
				e, ok = nonAffine[int(data[i+2]>>3)%len(nonAffine)], false
			}
			pool = append(pool, e)
			affine = append(affine, ok)
		}
		points := []Binding{
			{syms[0].ID: FloatVal(1.5), syms[1].ID: FloatVal(-2), syms[2].ID: FloatVal(3)},
			{syms[0].ID: FloatVal(float64(len(data))), syms[1].ID: FloatVal(0.5), syms[2].ID: FloatVal(-7)},
		}
		memos := []map[Expr][2]float64{{}, {}}
		for i, e := range pool {
			a := ExtractAffine(e)
			if !affine[i] {
				if a != nil {
					t.Fatalf("node %d %s: form %+v, want none", i, e, a)
				}
				continue
			}
			if a == nil {
				t.Fatalf("node %d %s: no form", i, e)
			}
			for j, term := range a.Terms() {
				if term.Coef == 0 || j > 0 && a.Terms()[j-1].Sym.ID >= term.Sym.ID {
					t.Fatalf("node %d %s: terms %+v not sorted and non-zero", i, e, a.Terms())
				}
			}
			for p, pt := range points {
				want, scale := evalReal(e, pt, memos[p])
				got, gotScale := a.Const, math.Abs(a.Const)
				for _, term := range a.Terms() {
					v := pt[term.Sym.ID].AsFloat()
					got += term.Coef * v
					gotScale += math.Abs(term.Coef * v)
				}
				if math.Abs(got-want) > 1e-9*(1+scale+gotScale) {
					t.Fatalf("node %d %s at %v: form gives %v, the DAG %v", i, e, pt, got, want)
				}
			}
		}
	})
}

// evalReal evaluates an affine-fragment DAG in float64 arithmetic, and
// bounds the magnitude of the values summed on the way (for a rounding
// tolerance). Shared nodes are evaluated once.
func evalReal(e Expr, pt Binding, memo map[Expr][2]float64) (val, scale float64) {
	if m, ok := memo[e]; ok {
		return m[0], m[1]
	}
	val, scale = evalRealNode(e, pt, memo)
	memo[e] = [2]float64{val, scale}
	return val, scale
}

func evalRealNode(e Expr, pt Binding, memo map[Expr][2]float64) (val, scale float64) {
	switch v := e.(type) {
	case IntConst:
		return float64(v.V), math.Abs(float64(v.V))
	case FloatConst:
		return v.V, math.Abs(v.V)
	case *Symbol:
		x := pt[v.ID].AsFloat()
		return x, math.Abs(x)
	case *Unary:
		x, s := evalReal(v.X, pt, memo)
		return -x, s
	case *Binary:
		l, ls := evalReal(v.L, pt, memo)
		r, rs := evalReal(v.R, pt, memo)
		switch v.Op {
		case OpAdd:
			return l + r, ls + rs
		case OpSub:
			return l - r, ls + rs
		case OpMul:
			return l * r, ls * rs
		case OpDiv:
			return l / r, ls / math.Abs(r)
		}
	}
	panic(fmt.Sprintf("evalReal: %s is outside the affine fragment", e))
}
