package sym_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"privacyscope/internal/interp"
	"privacyscope/internal/minic"
	"privacyscope/internal/priml"
	"privacyscope/internal/sym"
	"privacyscope/internal/taint"
)

// The tests in this file check that every layer that computes C arithmetic
// gives the same value, or all fail, on the same operands: constant
// folding, Eval, the evaluation tape, the MiniC interpreter and (int
// operators only) the PRIML interpreter. They all call sym's operator
// table, so what they pin is the plumbing around it: type dispatch, short
// circuits, conversions and the interpreter's value representation.

var (
	binaryOps = []sym.Op{sym.OpAdd, sym.OpSub, sym.OpMul, sym.OpDiv, sym.OpRem, sym.OpAnd, sym.OpOr,
		sym.OpXor, sym.OpShl, sym.OpShr, sym.OpEq, sym.OpNe, sym.OpLt, sym.OpLe, sym.OpGt, sym.OpGe,
		sym.OpLAnd, sym.OpLOr}
	unaryOps = []sym.Op{sym.OpNeg, sym.OpNot, sym.OpLNot, sym.OpToInt}

	// boundaryOperands are the operands where int32 wrap, truncation and
	// float conversion show: the wrap boundaries of + and *, signed zero,
	// NaN and floats outside int32.
	boundaryOperands = []sym.Value{
		sym.IntVal(0), sym.IntVal(1), sym.IntVal(-1), sym.IntVal(2), sym.IntVal(-2),
		sym.IntVal(math.MinInt32), sym.IntVal(math.MaxInt32),
		sym.IntVal(46341), sym.IntVal(-46341), sym.IntVal(65536), sym.IntVal(-65536),
		sym.FloatVal(0), sym.FloatVal(math.Copysign(0, -1)), sym.FloatVal(0.5), sym.FloatVal(-2.5),
		sym.FloatVal(3e9), sym.FloatVal(-3e9), sym.FloatVal(math.NaN()), sym.FloatVal(math.Inf(1)),
	}
)

// arithCase is one operation: op applied to args, or the math builtin fn
// when fn is set.
type arithCase struct {
	op   sym.Op
	fn   string
	args []sym.Value
}

func (c arithCase) String() string {
	name := c.fn
	if name == "" {
		name = c.op.String()
	}
	return fmt.Sprintf("%s%v", name, c.args)
}

// outcome is one layer's answer: a value, or failure.
type outcome struct {
	v  sym.Value
	ok bool
}

func (o outcome) String() string {
	if !o.ok {
		return "fail"
	}
	kind := "int"
	if o.v.IsFloat {
		kind = "float"
	}
	return fmt.Sprintf("%s %v", kind, o.v)
}

// same reports identical answers: NaNs are alike, signed zeros are not.
func (o outcome) same(p outcome) bool {
	if o.ok != p.ok {
		return false
	}
	if !o.ok {
		return true
	}
	a, b := o.v, p.v
	if a.IsFloat != b.IsFloat {
		return false
	}
	if !a.IsFloat {
		return a.I == b.I
	}
	if math.IsNaN(a.F) || math.IsNaN(b.F) {
		return math.IsNaN(a.F) && math.IsNaN(b.F)
	}
	return math.Float64bits(a.F) == math.Float64bits(b.F)
}

// fold builds the operation from constants through the folding
// constructors; an operation left symbolic fails.
func (c arithCase) fold() outcome {
	consts := make([]sym.Expr, len(c.args))
	for i, a := range c.args {
		consts[i] = a.Const()
	}
	var e sym.Expr
	switch {
	case c.fn != "":
		e = sym.NewCall(c.fn, consts)
	case len(consts) == 1:
		e = sym.NewUnary(c.op, consts[0])
	default:
		e = sym.NewBinary(c.op, consts[0], consts[1])
	}
	switch k := e.(type) {
	case sym.IntConst:
		return outcome{sym.IntVal(k.V), true}
	case sym.FloatConst:
		return outcome{sym.FloatVal(k.V), true}
	}
	return outcome{}
}

// symbolic builds the operation over fresh symbols, structurally (so no
// fold runs), and the binding of the symbols to the operands.
func (c arithCase) symbolic() (sym.Expr, sym.Binding) {
	var alloc taint.Allocator
	b := sym.NewBuilder(&alloc)
	bind := sym.Binding{}
	operands := make([]sym.Expr, len(c.args))
	for i, a := range c.args {
		s := b.FreshPublic(fmt.Sprintf("x%d", i))
		bind[s.ID] = a
		operands[i] = s
	}
	switch {
	case c.fn != "":
		return &sym.Call{Name: c.fn, Args: operands}, bind
	case len(operands) == 1:
		return &sym.Unary{Op: c.op, X: operands[0]}, bind
	}
	return &sym.Binary{Op: c.op, L: operands[0], R: operands[1]}, bind
}

func (c arithCase) eval() outcome {
	e, bind := c.symbolic()
	v, err := sym.Eval(e, bind)
	return outcome{v, err == nil}
}

func (c arithCase) tape() outcome {
	e, bind := c.symbolic()
	var tp sym.Tape
	s := tp.Add(e)
	for id, v := range bind {
		tp.Set(tp.Slot(id), v)
	}
	v, ok := tp.Eval(s)
	return outcome{v, ok}
}

// priml runs r := a op b (or r := op a) in the PRIML interpreter; ok
// is false for a case PRIML cannot express (floats or calls).
func (c arithCase) priml() (outcome, bool) {
	if c.fn != "" {
		return outcome{}, false
	}
	lits := make([]priml.Exp, len(c.args))
	for i, a := range c.args {
		if a.IsFloat {
			return outcome{}, false
		}
		lits[i] = &priml.IntLit{V: a.I}
	}
	var x priml.Exp = &priml.Unop{Op: c.op, X: lits[0]}
	if len(lits) == 2 {
		x = &priml.Binop{Op: c.op, L: lits[0], R: lits[1]}
	}
	res, err := priml.NewInterp().Run(&priml.Program{Body: &priml.Assign{Var: "r", Exp: x}}, nil)
	if err != nil {
		return outcome{}, true
	}
	return outcome{sym.IntVal(res.Delta["r"]), true}, true
}

// typeLetter names a value's MiniC type in interpFunc names.
func typeLetter(isFloat bool) byte {
	if isFloat {
		return 'f'
	}
	return 'i'
}

var cTypes = map[byte]string{'i': "int", 'f': "double"}

// interpProgram is one MiniC file with a function `return a op b;` (or
// `op a`, or `fn(a, …)`) for every operator or math builtin, operand type
// mix and result type, which interpFunc names, and `int toint(double a)`.
var interpProgram = sync.OnceValue(func() *interp.Program {
	var src strings.Builder
	def := func(name, ret string, params []byte, body string) {
		ps := make([]string, len(params))
		for i, p := range params {
			ps[i] = fmt.Sprintf("%s %c", cTypes[p], 'a'+i)
		}
		fmt.Fprintf(&src, "%s %s(%s) { return %s; }\n", ret, name, strings.Join(ps, ", "), body)
	}
	mixes := [][]byte{{'i'}, {'f'}, {'i', 'i'}, {'i', 'f'}, {'f', 'i'}, {'f', 'f'}}
	for _, ret := range []byte{'i', 'f'} {
		for _, mix := range mixes {
			if len(mix) == 2 {
				for _, op := range binaryOps {
					def(interpFunc(arithCase{op: op}, mix, ret), cTypes[ret], mix, "a "+op.String()+" b")
				}
				def(interpFunc(arithCase{fn: "pow"}, mix, ret), cTypes[ret], mix, "pow(a, b)")
				continue
			}
			for _, op := range unaryOps {
				def(interpFunc(arithCase{op: op}, mix, ret), cTypes[ret], mix, op.String()+"a")
			}
			for _, fn := range sym.MathNames() {
				def(interpFunc(arithCase{fn: fn}, mix, ret), cTypes[ret], mix, fn+"(a)")
			}
		}
	}
	def("toint", "int", []byte{'f'}, "a")
	file, err := minic.Parse(src.String())
	if err != nil {
		panic(err)
	}
	return interp.Compile(file)
})

func interpFunc(c arithCase, mix []byte, ret byte) string {
	name := c.fn
	if name == "" {
		name = fmt.Sprintf("op%d", c.op)
	}
	return fmt.Sprintf("%s_%s_%c", name, mix, ret)
}

// interp calls the case's function in the MiniC interpreter, declared to
// return want's type (an int when want fails).
func (c arithCase) interp(t testing.TB, want outcome) outcome {
	mix := make([]byte, len(c.args))
	args := make([]interp.Value, len(c.args))
	for i, a := range c.args {
		mix[i] = typeLetter(a.IsFloat)
		if a.IsFloat {
			args[i] = interp.FloatValue(a.F)
		} else {
			args[i] = interp.IntValue(int64(a.I))
		}
	}
	ret := typeLetter(want.ok && want.v.IsFloat)
	m, err := interpProgram().NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Call(interpFunc(c, mix, ret), args)
	if err != nil {
		return outcome{}
	}
	if v.IsFloat() {
		return outcome{sym.FloatVal(v.Float()), true}
	}
	return outcome{sym.IntVal(int32(v.Int())), true}
}

// checkLayers fails t when any layer's answer differs from the operator
// table's.
func checkLayers(t testing.TB, c arithCase) {
	t.Helper()
	var want outcome
	var err error
	switch {
	case c.fn != "":
		want.v, err = sym.ApplyMath(c.fn, c.args)
	case len(c.args) == 1:
		want.v, err = sym.ApplyUnary(c.op, c.args[0])
	default:
		want.v, err = sym.ApplyBinary(c.op, c.args[0], c.args[1])
	}
	want.ok = err == nil
	got := map[string]outcome{"fold": c.fold(), "Eval": c.eval(), "Tape": c.tape(), "interp": c.interp(t, want)}
	if p, ok := c.priml(); ok {
		got["PRIML"] = p
	}
	for layer, o := range got {
		if !o.same(want) {
			t.Errorf("%s: %s gives %s, the table %s", c, layer, o, want)
		}
	}
}

// TestArithLayersAgree runs every operator over every pair of boundary
// operands, int and float mixed, and every math builtin over each operand.
func TestArithLayersAgree(t *testing.T) {
	for _, a := range boundaryOperands {
		for _, op := range unaryOps {
			checkLayers(t, arithCase{op: op, args: []sym.Value{a}})
		}
		for _, fn := range sym.MathNames() {
			if f := sym.LookupMath(fn); f.Arity == 1 {
				checkLayers(t, arithCase{fn: fn, args: []sym.Value{a}})
			}
		}
		for _, b := range boundaryOperands {
			for _, op := range binaryOps {
				checkLayers(t, arithCase{op: op, args: []sym.Value{a, b}})
			}
			checkLayers(t, arithCase{fn: "pow", args: []sym.Value{a, b}})
		}
	}
}

// TestArithTable pins the table's C semantics at its edges.
func TestArithTable(t *testing.T) {
	i, f := sym.IntVal, sym.FloatVal
	tests := []struct {
		c    arithCase
		want outcome
	}{
		{arithCase{op: sym.OpAdd, args: []sym.Value{i(math.MaxInt32), i(1)}}, outcome{i(math.MinInt32), true}},
		{arithCase{op: sym.OpMul, args: []sym.Value{i(46341), i(46341)}}, outcome{i(-2147479015), true}},
		{arithCase{op: sym.OpDiv, args: []sym.Value{i(-7), i(2)}}, outcome{i(-3), true}},
		{arithCase{op: sym.OpRem, args: []sym.Value{i(-7), i(2)}}, outcome{i(-1), true}},
		{arithCase{op: sym.OpDiv, args: []sym.Value{i(math.MinInt32), i(-1)}}, outcome{i(math.MinInt32), true}},
		{arithCase{op: sym.OpShl, args: []sym.Value{i(1), i(33)}}, outcome{i(2), true}},
		{arithCase{op: sym.OpShr, args: []sym.Value{i(-8), i(-1)}}, outcome{i(-1), true}},
		{arithCase{op: sym.OpDiv, args: []sym.Value{f(1), i(0)}}, outcome{}},
		{arithCase{op: sym.OpRem, args: []sym.Value{f(5), i(2)}}, outcome{}},
		{arithCase{op: sym.OpDiv, args: []sym.Value{i(5), f(2)}}, outcome{f(2.5), true}},
		{arithCase{op: sym.OpLt, args: []sym.Value{f(math.NaN()), f(1)}}, outcome{i(0), true}},
		{arithCase{op: sym.OpLAnd, args: []sym.Value{f(math.NaN()), i(1)}}, outcome{i(1), true}},
		{arithCase{op: sym.OpNeg, args: []sym.Value{i(math.MinInt32)}}, outcome{i(math.MinInt32), true}},
		{arithCase{op: sym.OpNot, args: []sym.Value{f(2.5)}}, outcome{i(-3), true}},
		{arithCase{op: sym.OpToInt, args: []sym.Value{f(-2.5)}}, outcome{i(-2), true}},
		{arithCase{op: sym.OpToInt, args: []sym.Value{f(3e9)}}, outcome{i(math.MinInt32), true}},
		{arithCase{fn: "abs", args: []sym.Value{i(-5)}}, outcome{i(5), true}},
		{arithCase{fn: "abs", args: []sym.Value{i(math.MinInt32)}}, outcome{i(math.MinInt32), true}},
		{arithCase{fn: "abs", args: []sym.Value{f(-2.5)}}, outcome{i(2), true}},
		{arithCase{fn: "fabs", args: []sym.Value{i(-5)}}, outcome{f(5), true}},
		{arithCase{fn: "sqrt", args: []sym.Value{i(-1)}}, outcome{}},
		{arithCase{fn: "log", args: []sym.Value{f(0)}}, outcome{}},
	}
	for _, tt := range tests {
		if got := tt.c.eval(); !got.same(tt.want) {
			t.Errorf("%s = %s, want %s", tt.c, got, tt.want)
		}
	}
}

// TestToInt32 pins the float to int conversion to x86's cvttsd2si, and
// the MiniC interpreter's conversion to it.
func TestToInt32(t *testing.T) {
	tests := []struct {
		f    float64
		want int32
	}{
		{2.9, 2}, {-2.9, -2}, {math.Copysign(0, -1), 0},
		{2147483647.9, math.MaxInt32}, {-2147483648.9, math.MinInt32},
		{2147483648, math.MinInt32}, {3e9, math.MinInt32}, {-3e9, math.MinInt32},
		{math.NaN(), math.MinInt32}, {math.Inf(1), math.MinInt32}, {math.Inf(-1), math.MinInt32},
	}
	for _, tt := range tests {
		if got := sym.ToInt32(tt.f); got != tt.want {
			t.Errorf("ToInt32(%v) = %d, want %d", tt.f, got, tt.want)
		}
		m, err := interpProgram().NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := m.Call("toint", []interp.Value{interp.FloatValue(tt.f)}); err != nil || got.Int() != int64(tt.want) {
			t.Errorf("interpreter converts %v to %v (%v), want %d", tt.f, got, err, tt.want)
		}
	}
}

// TestArithAllocatesNothing pins that the table neither boxes a value nor
// allocates: an engine step, the model search's tape and witness replay
// all compute through it.
func TestArithAllocatesNothing(t *testing.T) {
	args := []sym.Value{sym.FloatVal(-1)}
	allocs := testing.AllocsPerRun(100, func() {
		_, _ = sym.ApplyBinary(sym.OpMul, sym.IntVal(46341), sym.IntVal(46341))
		_, _ = sym.ApplyBinary(sym.OpLt, sym.FloatVal(0.5), sym.IntVal(1))
		_, _ = sym.ApplyBinary(sym.OpDiv, sym.IntVal(1), sym.IntVal(0))
		_, _ = sym.ApplyBinary(sym.OpRem, sym.FloatVal(1), sym.IntVal(2))
		_, _ = sym.ApplyUnary(sym.OpNot, sym.FloatVal(2.5))
		_, _ = sym.ApplyUnary(sym.OpToInt, sym.FloatVal(2.5))
		_, _ = sym.ApplyMath("sqrt", args)
		_, _ = sym.ApplyMath("abs", args)
	})
	if allocs != 0 {
		t.Errorf("the operator table allocates %v times per round, want 0", allocs)
	}
}

// FuzzArith checks the layers against the table on arbitrary operands: an
// int operand is the low 32 bits of its word, a float one its bits.
func FuzzArith(f *testing.F) {
	bits := func(v sym.Value) (uint64, bool) {
		if v.IsFloat {
			return math.Float64bits(v.F), true
		}
		return uint64(uint32(v.I)), false
	}
	for i, a := range boundaryOperands {
		b := boundaryOperands[(i*7+3)%len(boundaryOperands)]
		ab, af := bits(a)
		bb, bf := bits(b)
		f.Add(uint8(i), ab, af, bb, bf)
	}
	f.Fuzz(func(t *testing.T, sel uint8, ab uint64, af bool, bb uint64, bf bool) {
		val := func(w uint64, isFloat bool) sym.Value {
			if isFloat {
				return sym.FloatVal(math.Float64frombits(w))
			}
			return sym.IntVal(int32(w))
		}
		a, b := val(ab, af), val(bb, bf)
		names := sym.MathNames()
		switch k := int(sel) % (len(binaryOps) + len(unaryOps) + len(names)); {
		case k < len(binaryOps):
			checkLayers(t, arithCase{op: binaryOps[k], args: []sym.Value{a, b}})
		case k < len(binaryOps)+len(unaryOps):
			checkLayers(t, arithCase{op: unaryOps[k-len(binaryOps)], args: []sym.Value{a}})
		default:
			fn := sym.LookupMath(names[k-len(binaryOps)-len(unaryOps)])
			checkLayers(t, arithCase{fn: fn.Name, args: []sym.Value{a, b}[:fn.Arity]})
		}
	})
}
