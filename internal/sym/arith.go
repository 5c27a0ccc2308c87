package sym

import (
	"errors"
	"fmt"
	"math"
)

// This file is the one definition of C arithmetic. Constant folding,
// Eval, the evaluation tape, the MiniC interpreter and the PRIML
// interpreter all compute through it, so the analyzer and every concrete
// run agree on what each operator yields:
//
//   - int operands are int32 and wrap; shift counts are masked to 31;
//   - an operation with a float operand computes in float64, as Go does;
//   - comparisons, && and || yield an int 0 or 1;
//   - / and % by zero fail with ErrDivideByZero, for floats too;
//   - %, &, |, ^, << and >> are undefined on a float operand;
//   - a float converts to int as x86's cvttsd2si does (ToInt32).
//
// Callers phrase the errors for their own users.

// errBadOperand is returned for an operator applied to operands it is not
// defined on, such as % on a float.
var errBadOperand = errors.New("sym: operator undefined on its operands")

// DomainError reports a math builtin applied outside its domain, e.g.
// "sqrt of negative value".
type DomainError string

func (e DomainError) Error() string { return "sym: " + string(e) }

// ToInt32 converts a float to int as SGX enclaves compute it, with x86's
// cvttsd2si: truncation toward zero, and INT_MIN for NaN or any value whose
// truncation lies outside int32. Go leaves that case to the platform
// (amd64 gives INT_MIN, arm64 saturates), so every layer converts here.
func ToInt32(f float64) int32 {
	if f > math.MinInt32-1 && f < math.MaxInt32+1 { // false for NaN
		return int32(f)
	}
	return math.MinInt32
}

// ApplyBinary computes l op r.
func ApplyBinary(op Op, l, r Value) (Value, error) {
	if l.IsFloat || r.IsFloat {
		a, b := l.AsFloat(), r.AsFloat()
		switch op {
		case OpAdd:
			return FloatVal(a + b), nil
		case OpSub:
			return FloatVal(a - b), nil
		case OpMul:
			return FloatVal(a * b), nil
		case OpDiv:
			if b == 0 {
				return Value{}, ErrDivideByZero
			}
			return FloatVal(a / b), nil
		case OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr:
			return Value{}, errBadOperand
		}
		return relate(op, a, b)
	}
	a, b := l.I, r.I
	switch op {
	case OpAdd:
		return IntVal(a + b), nil
	case OpSub:
		return IntVal(a - b), nil
	case OpMul:
		return IntVal(a * b), nil
	case OpDiv:
		if b == 0 {
			return Value{}, ErrDivideByZero
		}
		return IntVal(a / b), nil
	case OpRem:
		if b == 0 {
			return Value{}, ErrDivideByZero
		}
		return IntVal(a % b), nil
	case OpAnd:
		return IntVal(a & b), nil
	case OpOr:
		return IntVal(a | b), nil
	case OpXor:
		return IntVal(a ^ b), nil
	case OpShl:
		return IntVal(a << (uint32(b) & 31)), nil
	case OpShr:
		return IntVal(a >> (uint32(b) & 31)), nil
	}
	return relate(op, a, b)
}

// relate computes the operators that yield an int truth value.
func relate[T int32 | float64](op Op, a, b T) (Value, error) {
	var t bool
	switch op {
	case OpEq:
		t = a == b
	case OpNe:
		t = a != b
	case OpLt:
		t = a < b
	case OpLe:
		t = a <= b
	case OpGt:
		t = a > b
	case OpGe:
		t = a >= b
	case OpLAnd:
		t = a != 0 && b != 0
	case OpLOr:
		t = a != 0 || b != 0
	default:
		return Value{}, errBadOperand
	}
	return boolVal(t), nil
}

func boolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

// ApplyUnary computes op x. ~ on a float complements its int conversion.
func ApplyUnary(op Op, x Value) (Value, error) {
	switch op {
	case OpNeg:
		if x.IsFloat {
			return FloatVal(-x.F), nil
		}
		return IntVal(-x.I), nil
	case OpNot:
		return IntVal(^x.AsInt()), nil
	case OpLNot:
		return boolVal(x.IsZero()), nil
	}
	return Value{}, errBadOperand
}

// MathFunc is a C math library builtin of the table.
type MathFunc struct {
	Name  string
	Arity int
	// IntResult is set when the C result type is int (abs, which also
	// takes an int); the others take and return double.
	IntResult bool
	apply     func(args []Value) Value
	// domain, when set, rejects an argument outside the function's
	// domain.
	domain func(x float64) error
}

// mathFuncs is the one list of math builtins.
var mathFuncs = [...]MathFunc{
	{Name: "sqrt", Arity: 1, apply: float1(math.Sqrt), domain: func(x float64) error {
		if x < 0 {
			return DomainError("sqrt of negative value")
		}
		return nil
	}},
	{Name: "fabs", Arity: 1, apply: float1(math.Abs)},
	{Name: "abs", Arity: 1, IntResult: true, apply: func(a []Value) Value {
		x := a[0].AsInt()
		if x < 0 {
			x = -x // abs(INT_MIN) wraps to INT_MIN
		}
		return IntVal(x)
	}},
	{Name: "exp", Arity: 1, apply: float1(math.Exp)},
	{Name: "log", Arity: 1, apply: float1(math.Log), domain: func(x float64) error {
		if x <= 0 {
			return DomainError("log of non-positive value")
		}
		return nil
	}},
	{Name: "pow", Arity: 2, apply: func(a []Value) Value {
		return FloatVal(math.Pow(a[0].AsFloat(), a[1].AsFloat()))
	}},
	{Name: "floor", Arity: 1, apply: float1(math.Floor)},
	{Name: "ceil", Arity: 1, apply: float1(math.Ceil)},
}

func float1(f func(float64) float64) func([]Value) Value {
	return func(a []Value) Value { return FloatVal(f(a[0].AsFloat())) }
}

// LookupMath returns the math builtin called name, or nil.
func LookupMath(name string) *MathFunc {
	for i := range mathFuncs {
		if mathFuncs[i].Name == name {
			return &mathFuncs[i]
		}
	}
	return nil
}

// IsMath reports whether name is a math builtin.
func IsMath(name string) bool { return LookupMath(name) != nil }

// MathNames lists the math builtins' names.
func MathNames() []string {
	names := make([]string, len(mathFuncs))
	for i := range mathFuncs {
		names[i] = mathFuncs[i].Name
	}
	return names
}

// Apply computes the builtin on Arity arguments; an argument outside its
// domain fails with a DomainError.
func (f *MathFunc) Apply(args []Value) (Value, error) {
	if f.domain != nil {
		if err := f.domain(args[0].AsFloat()); err != nil {
			return Value{}, err
		}
	}
	return f.apply(args), nil
}

// ApplyMath computes the math builtin called name on args.
func ApplyMath(name string, args []Value) (Value, error) {
	f := LookupMath(name)
	switch {
	case f == nil:
		return Value{}, fmt.Errorf("sym: unknown math builtin %s", name)
	case len(args) != f.Arity:
		return Value{}, fmt.Errorf("sym: %s expects %d args, got %d", name, f.Arity, len(args))
	}
	return f.Apply(args)
}
