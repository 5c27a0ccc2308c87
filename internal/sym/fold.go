package sym

// This file implements constant folding and algebraic simplification. The
// constructors NewBinary and NewUnary simplify on construction, so the
// engine always holds expressions in a lightly-normalized form; the paper's
// trace tables (e.g. "2*s1 + 3*s2") come out of String() directly.

// NewBinary builds op(l, r), folding constants through ApplyBinary and
// applying cheap algebraic identities otherwise. An operation on constants
// that the table fails on, such as division by a concrete zero, is left
// symbolic (the engine reports it as a path error separately).
func NewBinary(op Op, l, r Expr) Expr {
	if lv, ok := constValue(l); ok {
		if rv, ok := constValue(r); ok {
			if v, err := ApplyBinary(op, lv, rv); err == nil {
				return v.Const()
			}
			return &Binary{Op: op, L: l, R: r}
		}
	}
	if e, ok := identity(op, l, r); ok {
		return e
	}
	return &Binary{Op: op, L: l, R: r}
}

// NewUnary builds op(x), folding a constant operand through ApplyUnary.
func NewUnary(op Op, x Expr) Expr {
	if xv, ok := constValue(x); ok {
		if v, err := ApplyUnary(op, xv); err == nil {
			return v.Const()
		}
	}
	// --x = x, ~~x = x, but !!x is NOT x (it normalizes to 0/1).
	if v, ok := x.(*Unary); ok && v.Op == op && (op == OpNeg || op == OpNot) {
		return v.X
	}
	return &Unary{Op: op, X: x}
}

// constValue returns a constant expression's value.
func constValue(e Expr) (Value, bool) {
	switch c := e.(type) {
	case IntConst:
		return IntVal(c.V), true
	case FloatConst:
		return FloatVal(c.V), true
	}
	return Value{}, false
}

func isIntZero(e Expr) bool {
	c, ok := e.(IntConst)
	return ok && c.V == 0
}

// isAnyZero matches both integer and float zero constants (additive
// identities are safe for either).
func isAnyZero(e Expr) bool {
	if isIntZero(e) {
		return true
	}
	c, ok := e.(FloatConst)
	return ok && c.V == 0
}

func isIntOne(e Expr) bool {
	c, ok := e.(IntConst)
	return ok && c.V == 1
}

// identity applies algebraic identities that are safe for both symbolic and
// concrete operands. Returns the simplified expression and true on a hit.
func identity(op Op, l, r Expr) (Expr, bool) {
	switch op {
	case OpAdd:
		if isAnyZero(l) {
			return r, true
		}
		if isAnyZero(r) {
			return l, true
		}
		// Reassociate trailing constants: (x ± c1) + c2 → x + (c1±…+c2),
		// so Listing 1's temporary+1 renders as secrets[0] + 101.
		if rc, ok := r.(IntConst); ok {
			if lb, ok := l.(*Binary); ok {
				if lc, ok := lb.R.(IntConst); ok {
					switch lb.Op {
					case OpAdd:
						return NewBinary(OpAdd, lb.L, IntConst{V: lc.V + rc.V}), true
					case OpSub:
						return NewBinary(OpAdd, lb.L, IntConst{V: rc.V - lc.V}), true
					}
				}
			}
		}
		if lc, ok := l.(IntConst); ok {
			if rb, ok := r.(*Binary); ok && rb.Op == OpAdd {
				if rc, ok := rb.R.(IntConst); ok {
					return NewBinary(OpAdd, rb.L, IntConst{V: lc.V + rc.V}), true
				}
			}
		}
	case OpSub:
		if isAnyZero(r) {
			return l, true
		}
		if Equal(l, r) && !containsFloat(l) {
			return IntConst{V: 0}, true
		}
		// (x + c1) - c2 → x + (c1-c2).
		if rc, ok := r.(IntConst); ok {
			if lb, ok := l.(*Binary); ok {
				if lc, ok := lb.R.(IntConst); ok {
					switch lb.Op {
					case OpAdd:
						return NewBinary(OpAdd, lb.L, IntConst{V: lc.V - rc.V}), true
					case OpSub:
						return NewBinary(OpSub, lb.L, IntConst{V: lc.V + rc.V}), true
					}
				}
			}
		}
	case OpMul:
		// x*0 = 0 holds for ints only: a float x may be ±Inf or NaN,
		// and then x*0 is NaN.
		if (isIntZero(l) && !containsFloat(r)) || (isIntZero(r) && !containsFloat(l)) {
			return IntConst{V: 0}, true
		}
		if isIntOne(l) {
			return r, true
		}
		if isIntOne(r) {
			return l, true
		}
	case OpDiv:
		if isIntOne(r) {
			return l, true
		}
	case OpXor:
		if isIntZero(l) {
			return r, true
		}
		if isIntZero(r) {
			return l, true
		}
		if Equal(l, r) {
			return IntConst{V: 0}, true
		}
	case OpOr:
		if isIntZero(l) {
			return r, true
		}
		if isIntZero(r) {
			return l, true
		}
	case OpAnd:
		if isIntZero(l) || isIntZero(r) {
			return IntConst{V: 0}, true
		}
	case OpEq:
		if Equal(l, r) && !containsFloat(l) { // NaN == NaN is 0
			return IntConst{V: 1}, true
		}
	case OpNe:
		if Equal(l, r) && !containsFloat(l) {
			return IntConst{V: 0}, true
		}
	case OpLAnd:
		if isIntZero(l) || isIntZero(r) {
			return IntConst{V: 0}, true
		}
		if c, ok := l.(IntConst); ok && c.V != 0 {
			return truthOf(r), true
		}
		if c, ok := r.(IntConst); ok && c.V != 0 {
			return truthOf(l), true
		}
	case OpLOr:
		if c, ok := l.(IntConst); ok {
			if c.V != 0 {
				return IntConst{V: 1}, true
			}
			return truthOf(r), true
		}
		if c, ok := r.(IntConst); ok {
			if c.V != 0 {
				return IntConst{V: 1}, true
			}
			return truthOf(l), true
		}
	}
	return nil, false
}

// truthOf normalizes an expression used in boolean position: comparisons
// pass through, everything else becomes (e != 0).
func truthOf(e Expr) Expr {
	if b, ok := e.(*Binary); ok && (b.Op.IsComparison() || b.Op.IsLogical()) {
		return e
	}
	if u, ok := e.(*Unary); ok && u.Op == OpLNot {
		return e
	}
	return NewBinary(OpNe, e, IntConst{V: 0})
}

// Truth exposes truthOf for engine callers that need to coerce a value into
// a path-condition formula.
func Truth(e Expr) Expr { return truthOf(e) }

// Negate returns the logical negation of a boolean-position expression,
// flipping comparison operators where possible so path conditions stay
// readable (reg0[1] == 0 vs reg0[1] != 0, as in Table IV).
func Negate(e Expr) Expr {
	if b, ok := e.(*Binary); ok {
		var flipped Op
		switch b.Op {
		case OpEq:
			flipped = OpNe
		case OpNe:
			flipped = OpEq
		case OpLt:
			flipped = OpGe
		case OpLe:
			flipped = OpGt
		case OpGt:
			flipped = OpLe
		case OpGe:
			flipped = OpLt
		default:
			return NewUnary(OpLNot, truthOf(e))
		}
		return NewBinary(flipped, b.L, b.R)
	}
	if u, ok := e.(*Unary); ok && u.Op == OpLNot {
		return truthOf(u.X)
	}
	return NewUnary(OpLNot, truthOf(e))
}

// containsFloat reports whether e may compute a float: it holds a float
// constant or a call (most math builtins return floats). Past a small tree
// it remembers the nodes it has walked, so a DAG that shares subterms costs
// its distinct nodes, not its exponential tree size.
func containsFloat(e Expr) bool {
	var f floatFinder
	return f.in(e)
}

type floatFinder struct {
	seen  map[Expr]bool // composites walked without finding a float
	nodes int
}

func (f *floatFinder) in(e Expr) bool {
	switch v := e.(type) {
	case FloatConst, *Call:
		return true
	case *Binary, *Unary:
		if f.nodes++; f.nodes > 64 {
			if f.seen[e] {
				return false
			}
			if f.seen == nil {
				f.seen = make(map[Expr]bool)
			}
			f.seen[e] = true
		}
		if b, ok := v.(*Binary); ok {
			return f.in(b.L) || f.in(b.R)
		}
		return f.in(v.(*Unary).X)
	}
	return false
}
