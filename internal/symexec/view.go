package symexec

import (
	"privacyscope/internal/mem"
	"privacyscope/internal/minic"
	"privacyscope/internal/solver"
	"privacyscope/internal/sym"
)

// IntrinsicCall carries one custom-intrinsic invocation: the evaluated
// scalar arguments, the call site, and the path condition under which the
// call executes.
type IntrinsicCall struct {
	Fun  string
	Args []sym.Expr
	Pos  minic.Pos
	PC   *solver.PathCondition
}

// IntrinsicFunc models one custom intrinsic. The returned expression is the
// call's value (nil means integer 0); an error aborts the analysis.
type IntrinsicFunc func(call IntrinsicCall) (sym.Expr, error)

// StateView is a read-only window onto one exploration state, handed to
// NoteHook and available to intrinsics via the engine. It never mutates the
// state: lookups that miss do not conjure inputs.
type StateView struct {
	e  *Engine
	st *state
}

// PC returns the state's path condition.
func (v StateView) PC() *solver.PathCondition { return v.st.pc }

// Global returns the scalar currently bound to the global g of the
// program. It reports false for unbound globals and non-scalar bindings —
// a read through the view never conjures a fresh input, nor a region.
func (v StateView) Global(g *minic.VarDecl) (sym.Expr, bool) {
	reg := v.e.globals[g.Slot]
	if reg == nil {
		return nil, false
	}
	return scalarLookup(v.st.store, reg)
}

func scalarLookup(store *mem.Store, reg mem.Region) (sym.Expr, bool) {
	val, ok := store.Lookup(reg)
	if !ok {
		return nil, false
	}
	sc, isScalar := val.(sym.Expr)
	return sc, isScalar
}
