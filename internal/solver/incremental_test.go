package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"privacyscope/internal/sym"
)

// propagateOracle is from-scratch interval propagation over the whole
// path condition: every atom of every conjunct applied in rounds until a
// round changes nothing (at most 8), then an emptiness check of every
// interval. It is the reference the incremental per-node state must equal.
func propagateOracle(s *Solver, pc *PathCondition) (map[int]*interval, Result) {
	ivs := make(map[int]*interval)
	get := func(sm *sym.Symbol) *interval {
		iv, ok := ivs[sm.ID]
		if !ok {
			iv = &interval{lo: math.MinInt32, hi: math.MaxInt32, excluded: make(map[float64]bool)}
			ivs[sm.ID] = iv
		}
		return iv
	}
	var atoms []sym.Expr
	for _, c := range pc.Conjuncts() {
		atoms = append(atoms, s.flatten(c)...)
	}
	for round := 0; round < 8; round++ {
		changed := false
		for _, a := range atoms {
			info := analyzeAtom(a)
			if info.kind == atomFalse {
				return ivs, Unsat
			}
			if info.kind == atomOpaque {
				continue
			}
			iv := get(info.sm)
			if oracleApply(iv, info.op, info.c) {
				changed = true
			}
			if iv.empty() {
				return ivs, Unsat
			}
		}
		if !changed {
			break
		}
	}
	for _, iv := range ivs {
		if iv.empty() {
			return ivs, Unsat
		}
	}
	return ivs, Unknown
}

// oracleApply tightens iv in place by "s op c" and reports whether it
// changed.
func oracleApply(iv *interval, op sym.Op, c float64) bool {
	changed := false
	lower := func(v float64) {
		if v > iv.lo {
			iv.lo = v
			changed = true
		}
	}
	upper := func(v float64) {
		if v < iv.hi {
			iv.hi = v
			changed = true
		}
	}
	switch op {
	case sym.OpEq:
		lower(c)
		upper(c)
	case sym.OpNe:
		if !iv.excluded[c] {
			iv.excluded[c] = true
			changed = true
		}
	case sym.OpLt:
		upper(math.Ceil(c) - 1)
	case sym.OpLe:
		upper(math.Floor(c))
	case sym.OpGt:
		lower(math.Floor(c) + 1)
	case sym.OpGe:
		lower(math.Ceil(c))
	}
	return changed
}

// sameState reports how the incremental state of pc differs from the
// oracle's, or "" when verdict and every per-symbol interval agree.
func sameState(sv *Solver, pc *PathCondition) string {
	bd := sv.boundsOf(pc)
	want, res := propagateOracle(sv, pc)
	if bd.unsat != (res == Unsat) {
		return fmt.Sprintf("unsat = %v, oracle %v", bd.unsat, res)
	}
	if bd.unsat {
		return ""
	}
	if len(bd.ivs) != len(want) {
		return fmt.Sprintf("%d bounded symbols, oracle %d", len(bd.ivs), len(want))
	}
	for id, w := range want {
		g, ok := bd.ivs[id]
		if !ok {
			return fmt.Sprintf("symbol %d unbounded, oracle [%v,%v]", id, w.lo, w.hi)
		}
		if g.lo != w.lo || g.hi != w.hi || len(g.excluded) != len(w.excluded) {
			return fmt.Sprintf("symbol %d: [%v,%v] excl %v, oracle [%v,%v] excl %v",
				id, g.lo, g.hi, g.excluded, w.lo, w.hi, w.excluded)
		}
		for v := range w.excluded {
			if !g.excluded[v] {
				return fmt.Sprintf("symbol %d: %v not excluded", id, v)
			}
		}
	}
	return ""
}

var allComparisons = []sym.Op{sym.OpEq, sym.OpNe, sym.OpLt, sym.OpLe, sym.OpGt, sym.OpGe}

// conjGen draws random conjuncts over a few symbols. Narrow mode keeps
// constants in a small window, so intervals shrink below 64 points and
// != exclusions can empty them.
type conjGen struct {
	r      *rand.Rand
	syms   []*sym.Symbol
	narrow bool
}

func (g *conjGen) constant() int32 {
	if g.narrow {
		return int32(g.r.Intn(12) - 2)
	}
	return int32(g.r.Intn(401) - 200)
}

// affine returns coef·s + k with coef drawn from ±1..±3 (negative
// coefficients flip the comparison when normalized).
func (g *conjGen) affine(s *sym.Symbol) sym.Expr {
	coef := int32(g.r.Intn(3) + 1)
	if g.r.Intn(2) == 0 {
		coef = -coef
	}
	var e sym.Expr = s
	if coef != 1 {
		e = &sym.Binary{Op: sym.OpMul, L: sym.IntConst{V: coef}, R: s}
	}
	if g.r.Intn(2) == 0 {
		e = &sym.Binary{Op: sym.OpAdd, L: e, R: sym.IntConst{V: int32(g.r.Intn(7) - 3)}}
	}
	return e
}

func (g *conjGen) comparison() sym.Expr {
	op := allComparisons[g.r.Intn(len(allComparisons))]
	s := g.syms[g.r.Intn(len(g.syms))]
	switch g.r.Intn(8) {
	case 0: // two symbols: opaque to interval propagation
		t := g.syms[g.r.Intn(len(g.syms))]
		return cmp(op, g.affine(s), g.affine(t))
	case 1: // constant comparison: holds or is constant-false
		return cmp(op, sym.IntConst{V: g.constant()}, sym.IntConst{V: g.constant()})
	case 2: // constant on the left
		return cmp(op, sym.IntConst{V: g.constant()}, g.affine(s))
	default:
		return cmp(op, g.affine(s), sym.IntConst{V: g.constant()})
	}
}

func (g *conjGen) conjunct() sym.Expr {
	switch g.r.Intn(10) {
	case 0:
		return &sym.Unary{Op: sym.OpLNot, X: g.comparison()}
	case 1:
		return &sym.Binary{Op: sym.OpLAnd, L: g.comparison(), R: g.conjunct()}
	case 2:
		if g.r.Intn(4) == 0 {
			return sym.IntConst{V: 0}
		}
	}
	return g.comparison()
}

// TestIncrementalBoundsMatchPropagation pins the invariant the solver's
// per-node interval cache rests on: for seeded random conjunct sequences,
// every prefix (and a negated sibling forked at every prefix) has the same
// verdict and the same per-symbol intervals as from-scratch propagation.
// Prefixes are checked in shuffled order so some nodes force several
// unforced ancestors at once.
func TestIncrementalBoundsMatchPropagation(t *testing.T) {
	b := newBuilder()
	syms := []*sym.Symbol{b.FreshSecret("a"), b.FreshSecret("b"), b.FreshPublic("c")}
	unsatSeen, excludedSeen := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		g := &conjGen{r: rand.New(rand.NewSource(seed)), syms: syms, narrow: seed%2 == 0}
		sv := New()
		pc := True()
		nodes := []*PathCondition{pc}
		for i := 0; i < 24; i++ {
			c := g.conjunct()
			nodes = append(nodes, pc.And(sym.Negate(c)))
			pc = pc.And(c)
			nodes = append(nodes, pc)
		}
		g.r.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		for _, n := range nodes {
			if diff := sameState(sv, n); diff != "" {
				t.Fatalf("seed %d, π = %s: %s", seed, n, diff)
			}
			bd := sv.boundsOf(n)
			if bd.unsat {
				unsatSeen++
			}
			for _, iv := range bd.ivs {
				if len(iv.excluded) > 0 && iv.hi-iv.lo < 64 {
					excludedSeen++
				}
			}
		}
	}
	// The generator must reach both sides of the verdict and the narrow
	// exclusion scan, or the comparison above proves little.
	if unsatSeen == 0 || excludedSeen == 0 {
		t.Errorf("coverage: %d unsat nodes, %d narrow intervals with exclusions", unsatSeen, excludedSeen)
	}
}

// TestIncrementalBoundsExclusionScan pins the narrow-range case directly:
// excluding every point of a small interval one conjunct at a time turns
// the last prefix unsat, and each earlier prefix matches the oracle.
func TestIncrementalBoundsExclusionScan(t *testing.T) {
	b := newBuilder()
	s := b.FreshSecret("s")
	sv := New()
	pc := True().And(cmp(sym.OpGe, s, sym.IntConst{V: 0})).And(cmp(sym.OpLe, s, sym.IntConst{V: 4}))
	for v := int32(0); v <= 4; v++ {
		if !sv.Feasible(pc) {
			t.Fatalf("π = %s: infeasible before every point is excluded", pc)
		}
		pc = pc.And(cmp(sym.OpNe, s, sym.IntConst{V: v}))
		if diff := sameState(sv, pc); diff != "" {
			t.Fatalf("π = %s: %s", pc, diff)
		}
	}
	if sv.Feasible(pc) {
		t.Errorf("π = %s: every point excluded, want infeasible", pc)
	}
}
