package sym

import (
	"errors"
	"fmt"
)

// This file defines the skeleton of a function summary: a
// builder-independent expression form where engine-minted symbols are
// replaced by parameter slots. A skeleton is captured once from a scratch
// symbolic run of the callee (Abstract) and replayed at every call site by
// substituting the actual argument expressions (Instantiate). Instantiate rebuilds the expression bottom-up
// through the same folding constructors (NewBinary, NewUnary, NewCall) the
// inline engine uses, so a summary application produces the byte-identical
// expression an inlined execution of the callee would have produced —
// provided the arguments satisfy ArgSafe.

// SumKind discriminates SumExpr nodes.
type SumKind uint8

// SumExpr node kinds.
const (
	SumInt   SumKind = iota + 1 // integer constant
	SumFloat                    // float constant
	SumParam                    // parameter slot (Param = index)
	SumBin                      // binary operation (Args[0], Args[1])
	SumUn                       // unary operation (Args[0])
	SumApp                      // uninterpreted/math call (Name, Args)
)

// SumExpr is one node of a summary skeleton. Unlike Expr it references no
// Builder and no symbol IDs, so a table of skeletons keyed by function name
// is shareable across the engines of concurrent entry points.
type SumExpr struct {
	Kind  SumKind
	Int   int32
	Float float64
	Param int
	Op    Op
	Name  string
	Args  []*SumExpr
}

// ErrFreeSymbol is returned by Abstract when the expression references a
// symbol that is not one of the declared parameter placeholders — i.e. the
// callee conjured state the summary cannot account for.
var ErrFreeSymbol = errors.New("sym: expression references a non-parameter symbol")

// Abstract converts a scratch-run return expression over placeholder
// symbols into a skeleton over parameter slots. paramOf maps placeholder
// symbol IDs to parameter indices; any other symbol fails with
// ErrFreeSymbol. Shared subtrees map to shared SumExpr nodes (the memo
// keeps the walk — and the skeleton — linear in the DAG).
func Abstract(e Expr, paramOf map[int]int) (*SumExpr, error) {
	return abstract(e, paramOf, make(map[Expr]*SumExpr))
}

func abstract(e Expr, paramOf map[int]int, memo map[Expr]*SumExpr) (*SumExpr, error) {
	if s, ok := memo[e]; ok {
		return s, nil
	}
	var s *SumExpr
	switch v := e.(type) {
	case IntConst:
		s = &SumExpr{Kind: SumInt, Int: v.V}
	case FloatConst:
		s = &SumExpr{Kind: SumFloat, Float: v.V}
	case *Symbol:
		idx, ok := paramOf[v.ID]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrFreeSymbol, v.Name)
		}
		s = &SumExpr{Kind: SumParam, Param: idx}
	case *Binary:
		l, err := abstract(v.L, paramOf, memo)
		if err != nil {
			return nil, err
		}
		r, err := abstract(v.R, paramOf, memo)
		if err != nil {
			return nil, err
		}
		s = &SumExpr{Kind: SumBin, Op: v.Op, Args: []*SumExpr{l, r}}
	case *Unary:
		x, err := abstract(v.X, paramOf, memo)
		if err != nil {
			return nil, err
		}
		s = &SumExpr{Kind: SumUn, Op: v.Op, Args: []*SumExpr{x}}
	case *Call:
		args := make([]*SumExpr, len(v.Args))
		for i, a := range v.Args {
			sa, err := abstract(a, paramOf, memo)
			if err != nil {
				return nil, err
			}
			args[i] = sa
		}
		s = &SumExpr{Kind: SumApp, Name: v.Name, Args: args}
	default:
		return nil, fmt.Errorf("sym: cannot abstract %T", e)
	}
	memo[e] = s
	return s, nil
}

// Instantiate substitutes args for the skeleton's parameter slots and
// rebuilds the expression through the folding constructors. Shared skeleton
// nodes instantiate once (per-node memo), preserving the DAG sharing the
// original expression had — without it a deeply shared skeleton would
// explode into a tree. Errors (out-of-range slot, unknown node kind) are
// the caller's signal to fall back to inlining.
func (s *SumExpr) Instantiate(args []Expr) (Expr, error) {
	return s.instantiate(nil, args, make(map[*SumExpr]Expr))
}

// InstantiateIn is Instantiate with the replay routed through an intern
// arena: every rebuilt node is canonicalized in it, so summary-mode
// expressions share identity with inline-mode ones and downstream
// pointer-keyed caches stay hot. A nil arena degrades to plain Instantiate.
func (s *SumExpr) InstantiateIn(in *Interner, args []Expr) (Expr, error) {
	return s.instantiate(in, args, make(map[*SumExpr]Expr))
}

func (s *SumExpr) instantiate(in *Interner, args []Expr, memo map[*SumExpr]Expr) (Expr, error) {
	if e, ok := memo[s]; ok {
		return e, nil
	}
	var e Expr
	switch s.Kind {
	case SumInt:
		e = IntConst{V: s.Int}
	case SumFloat:
		e = FloatConst{V: s.Float}
	case SumParam:
		if s.Param < 0 || s.Param >= len(args) || args[s.Param] == nil {
			return nil, fmt.Errorf("sym: summary parameter slot %d out of range (%d args)", s.Param, len(args))
		}
		e = args[s.Param]
	case SumBin:
		if len(s.Args) != 2 {
			return nil, errors.New("sym: malformed binary skeleton node")
		}
		l, err := s.Args[0].instantiate(in, args, memo)
		if err != nil {
			return nil, err
		}
		r, err := s.Args[1].instantiate(in, args, memo)
		if err != nil {
			return nil, err
		}
		e = in.NewBinary(s.Op, l, r)
	case SumUn:
		if len(s.Args) != 1 {
			return nil, errors.New("sym: malformed unary skeleton node")
		}
		x, err := s.Args[0].instantiate(in, args, memo)
		if err != nil {
			return nil, err
		}
		e = in.NewUnary(s.Op, x)
	case SumApp:
		ca := make([]Expr, len(s.Args))
		for i, a := range s.Args {
			ce, err := a.instantiate(in, args, memo)
			if err != nil {
				return nil, err
			}
			ca[i] = ce
		}
		e = in.NewCall(s.Name, ca)
	default:
		return nil, fmt.Errorf("sym: unknown skeleton kind %d", s.Kind)
	}
	memo[s] = e
	return e, nil
}

// ArgSafe reports whether substituting e for a pure-summary parameter slot
// preserves constructor-fold equality with inline execution. Two
// constructor folds inspect operand *shape* and would fire differently
// under an opaque placeholder than under the actual argument:
//
//   - the Equal-operand identities (x-x → 0, x==x → 1, …) and x*0 → 0
//     are gated on !containsFloat, so a float-carrying or call-carrying
//     argument would suppress at a call site a fold the skeleton already
//     committed to;
//   - the logical identities route operands through truthOf, which passes
//     comparison/logical shapes through unchanged but wraps everything else
//     (including a bare placeholder) in `(e != 0)`.
//
// Rejecting those argument shapes keeps every other fold confluent between
// skeleton capture and call-site instantiation.
func ArgSafe(e Expr) bool {
	if containsFloat(e) {
		return false
	}
	switch v := e.(type) {
	case *Binary:
		if v.Op.IsComparison() || v.Op.IsLogical() {
			return false
		}
	case *Unary:
		if v.Op == OpLNot {
			return false
		}
	}
	return true
}
