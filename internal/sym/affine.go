package sym

import "fmt"

// This file implements affine (linear) form extraction over symbolic
// expressions. The nonreversibility checker uses it to produce the concrete
// inversion witness for an explicit leak: if a sink value is a·s + b with
// a ≠ 0 and s the only secret involved, the attacker recovers
// s = (out − b) / a — exactly the "divide the observed value by 2" argument
// of Example 1 in the paper.

// Affine is Σ coefᵢ·symᵢ + Const with float64 coefficients (exact for the
// small integer coefficients appearing in practice). A form is immutable:
// its terms are sorted by symbol ID and every coefficient is non-zero, so
// forms are shared, never copied — ExtractAffine's memo hands the same form
// to every parent of a shared subtree.
type Affine struct {
	terms []Term
	Const float64
}

// Term is one symbol's share coef·sym of an affine form.
type Term struct {
	Sym  *Symbol
	Coef float64
}

// Terms returns the form's terms, sorted by symbol ID. The slice is the
// form's own and must not be modified.
func (a *Affine) Terms() []Term { return a.terms }

// IsConstant reports whether the form has no symbolic part.
func (a *Affine) IsConstant() bool { return len(a.terms) == 0 }

// scale returns k·a.
func (a *Affine) scale(k float64) *Affine {
	out := &Affine{terms: make([]Term, 0, len(a.terms)), Const: a.Const * k}
	for _, t := range a.terms {
		if c := t.Coef * k; c != 0 {
			out.terms = append(out.terms, Term{t.Sym, c})
		}
	}
	return out
}

// add returns a + sign·b, merging the two sorted term lists; a symbol in
// both forms keeps a's coefficient plus sign·b's, and drops out at zero.
func (a *Affine) add(b *Affine, sign float64) *Affine {
	out := &Affine{terms: make([]Term, 0, len(a.terms)+len(b.terms)), Const: a.Const + sign*b.Const}
	i, j := 0, 0
	for i < len(a.terms) || j < len(b.terms) {
		switch {
		case j == len(b.terms) || i < len(a.terms) && a.terms[i].Sym.ID < b.terms[j].Sym.ID:
			out.terms = append(out.terms, a.terms[i])
			i++
		case i == len(a.terms) || b.terms[j].Sym.ID < a.terms[i].Sym.ID:
			out.terms = append(out.terms, Term{b.terms[j].Sym, sign * b.terms[j].Coef})
			j++
		default:
			if c := a.terms[i].Coef + sign*b.terms[j].Coef; c != 0 {
				out.terms = append(out.terms, Term{b.terms[j].Sym, c})
			}
			i++
			j++
		}
	}
	return out
}

// ExtractAffine attempts to view e as an affine combination of symbols.
// It returns nil when e contains a non-linear construct (symbol·symbol,
// division by a symbol, bitwise/comparison operators, …). Shared subtrees
// are extracted once (the memo keeps the walk linear in the DAG).
func ExtractAffine(e Expr) *Affine {
	return affineMemo(e, make(map[Expr]*Affine))
}

// affineMemo extracts e's form, memoizing composite nodes; a nil entry
// records a non-affine node.
func affineMemo(e Expr, memo map[Expr]*Affine) *Affine {
	switch e.(type) {
	case *Binary, *Unary:
		if f, ok := memo[e]; ok {
			return f
		}
		f := extractAffineNode(e, memo)
		memo[e] = f
		return f
	default:
		return extractAffineNode(e, memo)
	}
}

func extractAffineNode(e Expr, memo map[Expr]*Affine) *Affine {
	switch v := e.(type) {
	case IntConst:
		return &Affine{Const: float64(v.V)}
	case FloatConst:
		return &Affine{Const: v.V}
	case *Symbol:
		return &Affine{terms: []Term{{v, 1}}}
	case *Unary:
		if v.Op != OpNeg {
			return nil
		}
		a := affineMemo(v.X, memo)
		if a == nil {
			return nil
		}
		return a.scale(-1)
	case *Binary:
		switch v.Op {
		case OpAdd, OpSub:
			l := affineMemo(v.L, memo)
			r := affineMemo(v.R, memo)
			if l == nil || r == nil {
				return nil
			}
			sign := 1.0
			if v.Op == OpSub {
				sign = -1
			}
			return l.add(r, sign)
		case OpMul:
			l := affineMemo(v.L, memo)
			r := affineMemo(v.R, memo)
			if l == nil || r == nil {
				return nil
			}
			switch {
			case l.IsConstant():
				return r.scale(l.Const)
			case r.IsConstant():
				return l.scale(r.Const)
			default:
				return nil
			}
		case OpDiv:
			l := affineMemo(v.L, memo)
			r := affineMemo(v.R, memo)
			if l == nil || r == nil || !r.IsConstant() || r.Const == 0 {
				return nil
			}
			return l.scale(1 / r.Const)
		}
		return nil
	default:
		return nil
	}
}

// Inversion describes how an attacker recovers a secret from an observed
// output value: secret = (observed − Offset) / Scale.
type Inversion struct {
	Secret  *Symbol
	Scale   float64 // never zero
	Offset  float64
	Exact   bool // true when no other symbols appear in the expression
	Masking []*Symbol
}

// Formula renders the inversion in human-readable form for the Box-1 style
// report, e.g. "s1 = (observed - 101) / 1".
func (inv *Inversion) Formula() string {
	return fmt.Sprintf("%s = (observed - %g) / %g", inv.Secret.Name, inv.Offset, inv.Scale)
}

// InvertFor attempts to derive the inversion recovering the secret with the
// given taint tag from expression e. It succeeds when e is affine and the
// target secret's coefficient is non-zero. Exact is true when the secret is
// the only symbol in e (deterministic recovery); otherwise Masking lists the
// other symbols the attacker would additionally need to know.
func InvertFor(e Expr, secretID int) (*Inversion, bool) {
	a := ExtractAffine(e)
	if a == nil {
		return nil, false
	}
	inv := &Inversion{Offset: a.Const}
	for _, t := range a.terms {
		if t.Sym.ID == secretID {
			inv.Secret, inv.Scale = t.Sym, t.Coef
		} else {
			inv.Masking = append(inv.Masking, t.Sym)
		}
	}
	if inv.Secret == nil {
		return nil, false
	}
	inv.Exact = len(inv.Masking) == 0
	return inv, true
}
