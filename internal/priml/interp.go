package priml

import (
	"errors"
	"fmt"

	"privacyscope/internal/sym"
)

// This file implements the base operational semantics of PRIML (the
// un-instrumented rules of §V-A): a concrete interpreter over 32-bit
// integers. The checker uses it to replay leak witnesses, and the
// differential tests use it to validate the symbolic analyzer.

// ErrSecretsExhausted is returned when get_secret is evaluated but the
// secret input stream is empty.
var ErrSecretsExhausted = errors.New("priml: secret input stream exhausted")

// RunResult is the observable outcome of a concrete PRIML execution: the
// sequence of declassified values (what a low observer sees) and the final
// variable context Δ.
type RunResult struct {
	// Declassified lists the values revealed by declassify, in order.
	Declassified []int32
	// DeclassifySites lists, in parallel with Declassified, the site ID
	// of each reveal.
	DeclassifySites []int
	// Delta is the final variable context.
	Delta map[string]int32
}

// Interp is a concrete PRIML interpreter. Each call to Run is independent.
type Interp struct{}

// NewInterp returns a concrete interpreter.
func NewInterp() *Interp { return &Interp{} }

// Run executes the program with the given secret input stream; each
// get_secret consumes the next value.
func (in *Interp) Run(p *Program, secrets []int32) (*RunResult, error) {
	st := &concreteState{
		delta:   make(map[string]int32),
		secrets: secrets,
	}
	if err := st.exec(p.Body); err != nil {
		return nil, err
	}
	return &RunResult{
		Declassified:    st.revealed,
		DeclassifySites: st.revealSites,
		Delta:           st.delta,
	}, nil
}

// RunWithInputs executes the program with secrets addressed by syntactic
// get_secret occurrence index (GetSecret.Index) rather than stream order.
// The checker uses it to replay witnesses produced by the analyzer, whose
// symbols are per-occurrence. Missing occurrences read 0.
func (in *Interp) RunWithInputs(p *Program, inputs map[int]int32) (*RunResult, error) {
	st := &concreteState{
		delta:    make(map[string]int32),
		byOccur:  inputs,
		useOccur: true,
	}
	if err := st.exec(p.Body); err != nil {
		return nil, err
	}
	return &RunResult{
		Declassified:    st.revealed,
		DeclassifySites: st.revealSites,
		Delta:           st.delta,
	}, nil
}

type concreteState struct {
	delta       map[string]int32
	secrets     []int32
	secretIdx   int
	byOccur     map[int]int32
	useOccur    bool
	revealed    []int32
	revealSites []int
}

func (st *concreteState) exec(s Stmt) error {
	switch v := s.(type) {
	case *Skip:
		return nil
	case *Seq:
		for _, sub := range v.Stmts {
			if err := st.exec(sub); err != nil {
				return err
			}
		}
		return nil
	case *Assign:
		val, err := st.eval(v.Exp)
		if err != nil {
			return err
		}
		st.delta[v.Var] = val
		return nil
	case *If:
		cond, err := st.eval(v.Cond)
		if err != nil {
			return err
		}
		if cond != 0 {
			return st.exec(v.Then) // TCOND
		}
		return st.exec(v.Else) // FCOND
	case *ExprStmt:
		_, err := st.eval(v.Exp)
		return err
	default:
		return fmt.Errorf("priml: unknown statement %T", s)
	}
}

func (st *concreteState) eval(e Exp) (int32, error) {
	switch v := e.(type) {
	case *IntLit:
		return v.V, nil
	case *Var:
		// Unknown variables evaluate to 0, matching Δ's total-map
		// reading; PRIML programs under analysis are assumed
		// well-formed (§V-A omits typing).
		return st.delta[v.Name], nil
	case *Paren:
		return st.eval(v.X)
	case *GetSecret:
		if st.useOccur {
			return st.byOccur[v.Index], nil
		}
		if st.secretIdx >= len(st.secrets) {
			return 0, ErrSecretsExhausted
		}
		val := st.secrets[st.secretIdx]
		st.secretIdx++
		return val, nil
	case *Declassify:
		val, err := st.eval(v.X)
		if err != nil {
			return 0, err
		}
		st.revealed = append(st.revealed, val)
		st.revealSites = append(st.revealSites, v.Site)
		return val, nil
	case *Unop:
		x, err := st.eval(v.X)
		if err != nil {
			return 0, err
		}
		res, err := sym.ApplyUnary(v.Op, sym.IntVal(x))
		return res.I, err
	case *Binop:
		l, err := st.eval(v.L)
		if err != nil {
			return 0, err
		}
		// Short-circuit to match C-like semantics (expressions are
		// side-effect free except declassify/get_secret, which do
		// occur in practice).
		if v.Op == sym.OpLAnd && l == 0 {
			return 0, nil
		}
		if v.Op == sym.OpLOr && l != 0 {
			return 1, nil
		}
		r, err := st.eval(v.R)
		if err != nil {
			return 0, err
		}
		res, err := sym.ApplyBinary(v.Op, sym.IntVal(l), sym.IntVal(r))
		return res.I, err
	default:
		return 0, fmt.Errorf("priml: unknown expression %T", e)
	}
}
