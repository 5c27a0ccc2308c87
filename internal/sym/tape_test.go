package sym

import (
	"math"
	"testing"
)

// sameValue reports whether two values are identical, NaNs and the sign
// of zero included.
func sameValue(a, b Value) bool {
	return a.IsFloat == b.IsFloat && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// bindTape sets the tape slot of every symbol b binds.
func bindTape(tp *Tape, b Binding) {
	for id, v := range b {
		tp.Set(tp.Slot(id), v)
	}
}

// requireTapeMatchesEval evaluates span s on the tape and e with Eval under
// b, and fails on any difference in value or in failure.
func requireTapeMatchesEval(t *testing.T, tp *Tape, s Span, e Expr, b Binding) {
	t.Helper()
	got, ok := tp.Eval(s)
	want, err := Eval(e, b)
	if ok != (err == nil) || (ok && !sameValue(got, want)) {
		t.Fatalf("%s under %v: tape (%v, %v), Eval (%v, %v)", e, b, got, ok, want, err)
	}
}

// TestTapeMatchesEval pins the tape's failure semantics against Eval on
// hand-picked cases: short circuits over failing arms, division by zero,
// NaN, signed zeros, calls and unbound symbols.
func TestTapeMatchesEval(t *testing.T) {
	b := newTestBuilder()
	x, y, u := b.FreshSecret("x"), b.FreshPublic("y"), b.FreshPublic("u") // u stays unbound
	bin := func(op Op, l, r Expr) Expr { return &Binary{Op: op, L: l, R: r} }
	zero, one := IntConst{V: 0}, IntConst{V: 1}
	nan, negZero := FloatConst{V: math.NaN()}, FloatConst{V: math.Copysign(0, -1)}
	divX := bin(OpDiv, one, x) // fails when x = 0
	cases := []Expr{
		bin(OpLAnd, zero, divX),              // right arm never fails the node
		bin(OpLOr, one, divX),                // likewise
		bin(OpLAnd, one, divX),               // right arm decides, and fails
		bin(OpLAnd, divX, zero),              // the left arm fails first
		bin(OpLOr, bin(OpEq, x, zero), divX), // short circuit depends on x
		bin(OpRem, y, x),
		bin(OpEq, nan, nan),
		bin(OpNe, nan, nan),
		bin(OpLt, nan, FloatConst{V: 1}),
		bin(OpLAnd, nan, one), // NaN is not zero
		bin(OpDiv, FloatConst{V: 1}, negZero),
		bin(OpEq, negZero, FloatConst{V: 0}),
		bin(OpMul, negZero, y),
		&Unary{Op: OpNeg, X: FloatConst{V: 0}},
		&Call{Name: "pow", Args: []Expr{negZero, FloatConst{V: -1}}},
		&Call{Name: "sqrt", Args: []Expr{bin(OpSub, zero, y)}},
		&Call{Name: "log", Args: []Expr{x}},
		&Call{Name: "nosuchfn", Args: []Expr{x}},
		&Call{Name: "sqrt", Args: []Expr{divX}},
		u,
		bin(OpAdd, x, u),
		bin(OpLAnd, zero, u), // an unbound symbol past a short circuit
		bin(OpLOr, u, one),
		&Unary{Op: OpLNot, X: u},
		nil,
		bin(OpAdd, x, nil),
	}
	for _, bind := range []Binding{
		{x.ID: IntVal(0), y.ID: IntVal(3)},
		{x.ID: IntVal(2), y.ID: IntVal(-7)},
		{x.ID: FloatVal(math.Copysign(0, -1)), y.ID: FloatVal(math.NaN())},
	} {
		var tp Tape
		bindTape(&tp, bind)
		spans := make([]Span, len(cases))
		for i, e := range cases {
			spans[i] = tp.Add(e)
			requireTapeMatchesEval(t, &tp, spans[i], e, bind)
		}
		// Re-evaluating in order, after every node was computed once,
		// gives the same answers.
		for i, e := range cases {
			requireTapeMatchesEval(t, &tp, spans[i], e, bind)
		}
	}
}

// TestTapeSharesNodes pins the layout: a node already on the tape is not
// added again, and a span whose expression is already there is empty and
// reads the existing node.
func TestTapeSharesNodes(t *testing.T) {
	b := newTestBuilder()
	x := b.FreshSecret("x")
	sq := &Binary{Op: OpMul, L: x, R: x}
	sum := &Binary{Op: OpAdd, L: sq, R: sq}
	var tp Tape
	first := tp.Add(sum)
	if n := first.to - first.from; n != 3 { // x, x*x, sum
		t.Fatalf("first span has %d nodes, want 3", n)
	}
	again := tp.Add(sq)
	if again.from != again.to || again.root != first.from+1 {
		t.Fatalf("re-adding a shared node: span %+v", again)
	}
	tp.Set(tp.Slot(x.ID), IntVal(3))
	if v, ok := tp.Eval(first); !ok || v != IntVal(18) {
		t.Fatalf("x*x + x*x at x = 3: %v, %v", v, ok)
	}
	if v, ok := tp.Eval(again); !ok || v != IntVal(9) {
		t.Fatalf("x*x at x = 3: %v, %v", v, ok)
	}
	tp.Reset()
	if s := tp.Add(sq); s.from != 0 || s.to != 2 {
		t.Fatalf("after Reset: span %+v", s)
	}
}

// FuzzTape compares the tape with Eval on generated DAGs: every pool
// expression is added to one tape and evaluated in order, under one
// binding and then again under a second one, where some symbols stay
// unbound throughout.
func FuzzTape(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 0x01, 0xfe, 0x33, 0x44})
	f.Add([]byte("short-circuit over a failing arm"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := newTestBuilder()
		syms := []*Symbol{b.FreshSecret("s"), b.FreshPublic("p"), b.FreshPublic("q"), b.FreshPublic("unbound")}
		pool := []Expr{
			IntConst{V: 0}, IntConst{V: 1}, IntConst{V: -1}, IntConst{V: math.MinInt32},
			FloatConst{V: 0}, FloatConst{V: math.Copysign(0, -1)}, FloatConst{V: math.NaN()}, FloatConst{V: 2.5},
			syms[0], syms[1], syms[2], syms[3],
		}
		ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr,
			OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLAnd, OpLOr}
		unops := []Op{OpNeg, OpNot, OpLNot}
		calls := []string{"sqrt", "fabs", "log", "floor", "pow", "exp", "nosuchfn"}
		for i := 0; i+2 < len(data) && len(pool) < 80; i += 3 {
			l := pool[int(data[i])%len(pool)]
			r := pool[int(data[i+1])%len(pool)]
			switch k := int(data[i+2]); k % 4 {
			case 0, 1:
				pool = append(pool, &Binary{Op: ops[k/4%len(ops)], L: l, R: r})
			case 2:
				pool = append(pool, &Unary{Op: unops[k/4%len(unops)], X: l})
			default:
				name := calls[k/4%len(calls)]
				args := []Expr{l}
				if name == "pow" {
					args = append(args, r)
				}
				pool = append(pool, &Call{Name: name, Args: args})
			}
		}
		bindings := []Binding{
			{syms[0].ID: IntVal(0), syms[1].ID: IntVal(7), syms[2].ID: FloatVal(-1.5)},
			{syms[0].ID: IntVal(-3), syms[1].ID: FloatVal(math.NaN()), syms[2].ID: IntVal(math.MaxInt32)},
		}
		var tp Tape
		spans := make([]Span, len(pool))
		for i, e := range pool {
			spans[i] = tp.Add(e)
		}
		for _, bind := range bindings {
			bindTape(&tp, bind)
			for i, e := range pool {
				requireTapeMatchesEval(t, &tp, spans[i], e, bind)
			}
		}
	})
}
