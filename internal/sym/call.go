package sym

import (
	"fmt"
	"math"
)

// Call is an uninterpreted (or math-library) function application over
// symbolic arguments, e.g. sqrt(s1 + 1). It preserves the taint of its
// arguments: FreeSymbols descends into Args, so a single-secret argument
// keeps its single tag through the call — sqrt(2*s1) is still recoverable.
type Call struct {
	Name string
	Args []Expr

	tag internTag // set only by an Interner; zero for structurally built nodes
}

func (*Call) isExpr() {}

// String renders the application in C syntax.
func (c *Call) String() string { return Render(c, 0) }

// NewCall builds an application, folding when every argument is a known
// constant and the function is a recognized math builtin.
func NewCall(name string, args []Expr) Expr {
	for _, a := range args {
		if !IsConcrete(a) {
			return &Call{Name: name, Args: args}
		}
	}
	vals := make([]Value, len(args))
	for i, a := range args {
		v, err := Eval(a, nil)
		if err != nil {
			return &Call{Name: name, Args: args}
		}
		vals[i] = v
	}
	if out, err := evalMath(name, vals); err == nil {
		return FloatConst{V: out}
	}
	return &Call{Name: name, Args: args}
}

// evalMath evaluates recognized math builtins on concrete values.
func evalMath(name string, args []Value) (float64, error) {
	one := func() (float64, error) {
		if len(args) != 1 {
			return 0, fmt.Errorf("sym: %s expects 1 arg", name)
		}
		return args[0].AsFloat(), nil
	}
	switch name {
	case "sqrt":
		x, err := one()
		if err != nil {
			return 0, err
		}
		if x < 0 {
			return 0, fmt.Errorf("sym: sqrt of negative")
		}
		return math.Sqrt(x), nil
	case "fabs", "abs":
		x, err := one()
		if err != nil {
			return 0, err
		}
		return math.Abs(x), nil
	case "exp":
		x, err := one()
		if err != nil {
			return 0, err
		}
		return math.Exp(x), nil
	case "log":
		x, err := one()
		if err != nil {
			return 0, err
		}
		if x <= 0 {
			return 0, fmt.Errorf("sym: log of non-positive")
		}
		return math.Log(x), nil
	case "floor":
		x, err := one()
		if err != nil {
			return 0, err
		}
		return math.Floor(x), nil
	case "ceil":
		x, err := one()
		if err != nil {
			return 0, err
		}
		return math.Ceil(x), nil
	case "pow":
		if len(args) != 2 {
			return 0, fmt.Errorf("sym: pow expects 2 args")
		}
		return math.Pow(args[0].AsFloat(), args[1].AsFloat()), nil
	}
	return 0, fmt.Errorf("sym: unknown math builtin %s", name)
}
