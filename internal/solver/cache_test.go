package solver

import (
	"testing"

	"privacyscope/internal/obs"
	"privacyscope/internal/sym"
)

// TestZeroValueSolverStillWorks guards the documented zero-value contract
// after the observer and cache fields were added.
func TestZeroValueSolverStillWorks(t *testing.T) {
	b := newBuilder()
	s1 := b.FreshSecret("s1")
	var sv Solver
	pc := True().And(cmp(sym.OpEq, s1, sym.IntConst{V: 3}))
	if !sv.Feasible(pc) {
		t.Error("zero-value solver must stay usable")
	}
	if sv.Check(pc) != Sat {
		t.Error("zero-value Check must find the model")
	}
}

func TestCheckCountsVerdicts(t *testing.T) {
	b := newBuilder()
	s1 := b.FreshSecret("s1")
	m := obs.NewMetrics()
	sv := NewObserved(m)
	sv.Check(True().And(cmp(sym.OpEq, s1, sym.IntConst{V: 5})))
	sv.Check(True().
		And(cmp(sym.OpGt, s1, sym.IntConst{V: 0})).
		And(cmp(sym.OpLt, s1, sym.IntConst{V: 0})))
	if m.Counter("solver.sat") != 1 || m.Counter("solver.unsat") != 1 {
		t.Errorf("sat=%d unsat=%d, want 1/1",
			m.Counter("solver.sat"), m.Counter("solver.unsat"))
	}
}
