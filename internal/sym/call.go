package sym

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

// NewCall builds an application, folding when the function is a math
// builtin and every argument is a constant.
func NewCall(name string, args []Expr) Expr {
	if f := LookupMath(name); f != nil && len(args) == f.Arity {
		var buf [2]Value
		vals := buf[:0]
		for _, a := range args {
			v, ok := constValue(a)
			if !ok {
				return &Call{Name: name, Args: args}
			}
			vals = append(vals, v)
		}
		if out, err := f.Apply(vals); err == nil {
			return out.Const()
		}
	}
	return &Call{Name: name, Args: args}
}
