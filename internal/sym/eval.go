package sym

import (
	"errors"
	"fmt"
)

// This file implements concrete evaluation of symbolic expressions under a
// binding of symbols to values. The checker uses it to replay leak
// witnesses: two concrete runs whose inputs differ in exactly one secret
// must produce observably different outputs, and applying the reported
// inversion must recover the secret.

// ErrUnbound is returned when evaluation reaches a symbol with no binding.
var ErrUnbound = errors.New("sym: unbound symbol")

// ErrDivideByZero is returned when evaluation divides by zero.
var ErrDivideByZero = errors.New("sym: division by zero")

// Binding assigns concrete values to symbols by ID.
type Binding map[int]Value

// Value is a concrete scalar: either a 32-bit integer or a float64.
type Value struct {
	IsFloat bool
	I       int32
	F       float64
}

// IntVal wraps a 32-bit integer value.
func IntVal(v int32) Value { return Value{I: v} }

// FloatVal wraps a floating point value.
func FloatVal(v float64) Value { return Value{IsFloat: true, F: v} }

// AsFloat returns the value as float64 regardless of kind.
func (v Value) AsFloat() float64 {
	if v.IsFloat {
		return v.F
	}
	return float64(v.I)
}

// AsInt returns the value as int32 (floats convert by ToInt32).
func (v Value) AsInt() int32 {
	if v.IsFloat {
		return ToInt32(v.F)
	}
	return v.I
}

// Const returns the value as a constant expression.
func (v Value) Const() Expr {
	if v.IsFloat {
		return FloatConst{V: v.F}
	}
	return IntConst{V: v.I}
}

// IsZero reports whether the value is numerically zero.
func (v Value) IsZero() bool {
	if v.IsFloat {
		return v.F == 0
	}
	return v.I == 0
}

// Equal reports numeric equality (an int and a float compare by value).
func (v Value) Equal(o Value) bool {
	if v.IsFloat || o.IsFloat {
		return v.AsFloat() == o.AsFloat()
	}
	return v.I == o.I
}

// String formats the value.
func (v Value) String() string {
	if v.IsFloat {
		return fmt.Sprintf("%g", v.F)
	}
	return fmt.Sprintf("%d", v.I)
}

// Eval evaluates e under the binding. Shared subtrees are evaluated once:
// the engine builds expression DAGs with heavy sharing (means and distances
// reused across aggregate terms), and an unmemoized walk would be
// exponential in the sharing depth.
func Eval(e Expr, b Binding) (Value, error) {
	return evalMemo(e, b, make(map[Expr]Value))
}

func evalMemo(e Expr, b Binding, cache map[Expr]Value) (Value, error) {
	switch e.(type) {
	case *Binary, *Unary, *Call:
		if v, ok := cache[e]; ok {
			return v, nil
		}
	}
	v, err := evalNode(e, b, cache)
	if err != nil {
		return Value{}, err
	}
	switch e.(type) {
	case *Binary, *Unary, *Call:
		cache[e] = v
	}
	return v, nil
}

func evalNode(e Expr, b Binding, cache map[Expr]Value) (Value, error) {
	switch v := e.(type) {
	case IntConst:
		return IntVal(v.V), nil
	case FloatConst:
		return FloatVal(v.V), nil
	case *Symbol:
		val, ok := b[v.ID]
		if !ok {
			return Value{}, fmt.Errorf("%w: %s", ErrUnbound, v.Name)
		}
		return val, nil
	case *Unary:
		x, err := evalMemo(v.X, b, cache)
		if err != nil {
			return Value{}, err
		}
		return ApplyUnary(v.Op, x)
	case *Binary:
		l, err := evalMemo(v.L, b, cache)
		if err != nil {
			return Value{}, err
		}
		// Short-circuit logical operators.
		if v.Op == OpLAnd && l.IsZero() {
			return IntVal(0), nil
		}
		if v.Op == OpLOr && !l.IsZero() {
			return IntVal(1), nil
		}
		r, err := evalMemo(v.R, b, cache)
		if err != nil {
			return Value{}, err
		}
		return ApplyBinary(v.Op, l, r)
	case *Call:
		args := make([]Value, len(v.Args))
		for i, a := range v.Args {
			av, err := evalMemo(a, b, cache)
			if err != nil {
				return Value{}, err
			}
			args[i] = av
		}
		return ApplyMath(v.Name, args)
	default:
		return Value{}, fmt.Errorf("sym: cannot evaluate %T", e)
	}
}

// Substitute replaces bound symbols in e with constants and re-simplifies.
// Unbound symbols are left symbolic. Shared subtrees are rewritten once
// (and stay shared in the result).
func Substitute(e Expr, b Binding) Expr {
	return substMemo(e, b, make(map[Expr]Expr))
}

func substMemo(e Expr, b Binding, memo map[Expr]Expr) Expr {
	switch e.(type) {
	case *Binary, *Unary, *Call:
		if out, ok := memo[e]; ok {
			return out
		}
	}
	out := substNode(e, b, memo)
	switch e.(type) {
	case *Binary, *Unary, *Call:
		memo[e] = out
	}
	return out
}

func substNode(e Expr, b Binding, memo map[Expr]Expr) Expr {
	switch v := e.(type) {
	case IntConst, FloatConst:
		return e
	case *Symbol:
		val, ok := b[v.ID]
		if !ok {
			return e
		}
		return val.Const()
	case *Unary:
		return NewUnary(v.Op, substMemo(v.X, b, memo))
	case *Binary:
		return NewBinary(v.Op, substMemo(v.L, b, memo), substMemo(v.R, b, memo))
	case *Call:
		args := make([]Expr, len(v.Args))
		for i, a := range v.Args {
			args[i] = substMemo(a, b, memo)
		}
		return NewCall(v.Name, args)
	default:
		return e
	}
}
