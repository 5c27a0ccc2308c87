package solver

import (
	"maps"
	"math"

	"privacyscope/internal/obs"
	"privacyscope/internal/sym"
)

// Result is the solver's three-valued verdict on a path condition.
type Result int

// Verdicts. Unknown means the solver could not decide; callers treating the
// path as feasible stay sound (no feasible path is pruned).
const (
	Unsat Result = iota + 1
	Sat
	Unknown
)

// String names the verdict.
func (r Result) String() string {
	switch r {
	case Unsat:
		return "unsat"
	case Sat:
		return "sat"
	default:
		return "unknown"
	}
}

// interval is a closed integer interval (symbols range over 32-bit ints)
// with optional excluded points (from != constraints). Intervals are shared
// between a path condition and its descendants, so they are never modified
// once published; tightened returns a fresh copy.
type interval struct {
	lo, hi   float64
	excluded map[float64]bool // nil when empty; copied before adding a point
}

func (iv *interval) empty() bool {
	lo, hi := math.Ceil(iv.lo), math.Floor(iv.hi)
	if lo > hi {
		return true
	}
	// A finite integer interval fully covered by exclusions is empty.
	if hi-lo < 64 {
		for v := lo; v <= hi; v++ {
			if !iv.excluded[v] {
				return false
			}
		}
		return true
	}
	return false
}

// clampLo raises the lower bound.
func (iv *interval) clampLo(v float64) {
	if v > iv.lo {
		iv.lo = v
	}
}

// clampHi lowers the upper bound.
func (iv *interval) clampHi(v float64) {
	if v < iv.hi {
		iv.hi = v
	}
}

// tightened returns iv narrowed by "s op c" as a fresh interval; a nil iv
// stands for the symbol's full 32-bit range. The bound each comparison
// imposes depends only on op and c, never on iv, so applying atoms is
// monotone, idempotent and commutative: one pass over the atoms reaches the
// same fixpoint as any number of propagation rounds.
func tightened(iv *interval, op sym.Op, c float64) *interval {
	n := &interval{lo: math.MinInt32, hi: math.MaxInt32}
	if iv != nil {
		*n = *iv
	}
	switch op {
	case sym.OpEq:
		n.clampLo(c)
		n.clampHi(c)
	case sym.OpNe:
		if !n.excluded[c] {
			ex := make(map[float64]bool, len(n.excluded)+1)
			for v := range n.excluded {
				ex[v] = true
			}
			ex[c] = true
			n.excluded = ex
		}
	case sym.OpLt:
		n.clampHi(math.Ceil(c) - 1)
	case sym.OpLe:
		n.clampHi(math.Floor(c))
	case sym.OpGt:
		n.clampLo(math.Floor(c) + 1)
	case sym.OpGe:
		n.clampLo(math.Ceil(c))
	}
	return n
}

// bounds is the interval state of one path condition: the per-symbol
// intervals after applying every conjunct's atoms, or unsat once any
// conjunct is constant-false or empties an interval. It is immutable once
// built; a condition whose newest conjunct bounds nothing shares its
// parent's bounds.
type bounds struct {
	ivs   map[int]*interval // symbol ID → interval; only symbols some atom bounds
	unsat bool
}

var (
	noBounds    = &bounds{}
	unsatBounds = &bounds{unsat: true}
)

// Solver decides satisfiability of path conditions via affine
// normalization plus interval propagation over the symbols. The zero value
// is ready to use.
//
// Interval state is cached per path-condition node and derived from the
// parent's in one pass over the newest conjunct's atoms (boundsOf), so a
// feasibility query at a fork costs what the fork added to π.
type Solver struct {
	obs obs.Observer
	itn *sym.Interner // optional: canonicalizes solver-built negations

	// atoms caches the normalized constraint per interned conjunct: sibling
	// paths and the feasibility checks of every fork re-analyze the same
	// atoms, and without the cache each re-runs affine extraction. Keys are
	// canonical *sym* nodes — pointer identity is structural identity — so
	// the cache is bounded by the arena and needs no eviction; non-interned
	// atoms are analyzed fresh each time, which keeps the cache sound with
	// interning off. Created on first use.
	atoms map[sym.Expr]*atomInfo
	// tape is the model search's evaluation program, rebuilt per search
	// in reused buffers.
	tape sym.Tape
}

// SetInterner hands the solver the engine's intern arena so the negations
// it synthesizes while flattening conjuncts are canonical too (and thus
// hit the per-atom cache). Call before the first query; a nil arena (or
// never calling this) keeps the solver fully structural.
func (s *Solver) SetInterner(in *sym.Interner) { s.itn = in }

// New returns a Solver.
func New() *Solver { return &Solver{} }

// NewObserved returns a Solver reporting query and verdict counters to o.
func NewObserved(o obs.Observer) *Solver { return &Solver{obs: obs.Or(o)} }

// o returns the observer, keeping the zero-value Solver usable.
func (s *Solver) o() obs.Observer { return obs.Or(s.obs) }

// Check returns Unsat when the conjunction is provably unsatisfiable, Sat
// when interval propagation finds a verified model, and Unknown otherwise.
func (s *Solver) Check(pc *PathCondition) Result {
	s.o().Add("solver.queries", 1)
	bd := s.boundsOf(pc)
	if bd.unsat {
		s.o().Add("solver.unsat", 1)
		return Unsat
	}
	if _, ok := s.model(pc, bd.ivs); ok {
		s.o().Add("solver.sat", 1)
		return Sat
	}
	s.o().Add("solver.unknown", 1)
	return Unknown
}

// Feasible reports whether the path may be satisfiable (everything except a
// proven Unsat). This is the engine's pruning predicate: sound, possibly
// exploring a few infeasible paths. It reads the cached interval state only
// — the model search of Check would be wasted work on the hot pruning path.
func (s *Solver) Feasible(pc *PathCondition) bool {
	s.o().Add("solver.queries", 1)
	if s.boundsOf(pc).unsat {
		s.o().Add("solver.unsat", 1)
		return false
	}
	return true
}

// Model attempts to produce a concrete binding of all symbols in pc (plus
// any extra symbols supplied) that satisfies every conjunct. Used by the
// checker to construct replayable leak witnesses. Each call returns a fresh
// binding the caller may modify.
func (s *Solver) Model(pc *PathCondition, extra []*sym.Symbol) (sym.Binding, bool) {
	s.o().Add("solver.queries", 1)
	bd := s.boundsOf(pc)
	if bd.unsat {
		return nil, false
	}
	found, ok := s.model(pc, bd.ivs)
	if !ok {
		return nil, false
	}
	b := make(sym.Binding, len(found)+len(extra))
	maps.Copy(b, found)
	for _, x := range extra {
		if _, bound := b[x.ID]; !bound {
			b[x.ID] = sym.IntVal(0)
		}
	}
	return b, true
}

// boundsOf returns pc's interval state, computing and caching it on first
// use: the parent's state with the newest conjunct's atoms applied once.
// That equals propagating every conjunct from scratch, because each atom
// bounds one symbol by a constant (see tightened), and an unsat parent
// yields an unsat child. The state is a pure function of the conjuncts, so
// the cache is shared by every solver that reads pc.
func (s *Solver) boundsOf(pc *PathCondition) *bounds {
	if pc.bounds == nil {
		if pc.n == 0 {
			pc.bounds = noBounds
		} else {
			pc.bounds = s.extend(s.boundsOf(pc.parent), pc.last)
		}
	}
	return pc.bounds
}

// extend applies one conjunct's atoms to a parent state. The intervals map
// is copied only when an atom bounds a symbol, and only the touched
// intervals are replaced.
func (s *Solver) extend(parent *bounds, conj sym.Expr) *bounds {
	if parent.unsat {
		return parent
	}
	var ivs map[int]*interval
	for _, a := range s.flatten(conj) {
		info := s.atomInfoFor(a)
		switch info.kind {
		case atomFalse:
			return unsatBounds
		case atomOpaque:
			continue
		}
		if ivs == nil {
			ivs = maps.Clone(parent.ivs)
			if ivs == nil {
				ivs = make(map[int]*interval, 1)
			}
		}
		iv := tightened(ivs[info.sm.ID], info.op, info.c)
		if iv.empty() {
			return unsatBounds
		}
		ivs[info.sm.ID] = iv
	}
	if ivs == nil {
		return parent
	}
	return &bounds{ivs: ivs}
}

// flatten splits top-level && conjuncts and strips double negation. The
// negations it builds go through the intern arena (when attached) so they
// share identity with engine-built atoms and stay cacheable.
func (s *Solver) flatten(conj sym.Expr) []sym.Expr {
	var out []sym.Expr
	var walk func(e sym.Expr)
	walk = func(e sym.Expr) {
		if b, ok := e.(*sym.Binary); ok && b.Op == sym.OpLAnd {
			walk(b.L)
			walk(b.R)
			return
		}
		if u, ok := e.(*sym.Unary); ok && u.Op == sym.OpLNot {
			out = append(out, s.itn.Negate(u.X))
			return
		}
		out = append(out, e)
	}
	walk(conj)
	return out
}

// atomKind classifies what a conjunct contributes to propagation.
type atomKind int

const (
	atomOpaque atomKind = iota // no usable interval information
	atomFalse                  // constant-false conjunct: immediately unsat
	atomBound                  // single-symbol affine comparison s OP c
)

// atomInfo is the normalized, input-independent contribution of one atom —
// the expensive half (affine extraction, coefficient normalization) that is
// a pure function of the conjunct and therefore cacheable per canonical node.
type atomInfo struct {
	kind atomKind
	sm   *sym.Symbol
	op   sym.Op // flipped already if the coefficient was negative
	c    float64
}

var opaqueAtom = &atomInfo{kind: atomOpaque}
var falseAtom = &atomInfo{kind: atomFalse}

// analyzeAtom normalizes one boolean conjunct to its interval contribution.
func analyzeAtom(e sym.Expr) *atomInfo {
	// Constant conjuncts decide immediately.
	if c, ok := e.(sym.IntConst); ok {
		if c.V == 0 {
			return falseAtom
		}
		return opaqueAtom
	}
	b, ok := e.(*sym.Binary)
	if !ok || !b.Op.IsComparison() {
		return opaqueAtom // opaque conjunct; stay sound by ignoring it
	}
	// Normalize to (L - R) OP 0 as an affine form.
	diff := sym.ExtractAffine(&sym.Binary{Op: sym.OpSub, L: b.L, R: b.R})
	if diff == nil {
		return opaqueAtom
	}
	if diff.IsConstant() {
		if constHolds(b.Op, diff.Const) {
			return opaqueAtom
		}
		return falseAtom
	}
	terms := diff.Terms()
	if len(terms) != 1 {
		return opaqueAtom
	}
	sm, a := terms[0].Sym, terms[0].Coef
	c := -diff.Const / a // a·s + const OP 0  ⇒  s OP' c
	op := b.Op
	if a < 0 {
		op = flipOp(op)
	}
	return &atomInfo{kind: atomBound, sm: sm, op: op, c: c}
}

// atomInfoFor analyzes e, memoizing per canonical node (interned atoms are
// immutable and pointer-unique).
func (s *Solver) atomInfoFor(e sym.Expr) *atomInfo {
	if !sym.Interned(e) {
		return analyzeAtom(e)
	}
	if info, ok := s.atoms[e]; ok {
		return info
	}
	if s.atoms == nil {
		s.atoms = make(map[sym.Expr]*atomInfo)
	}
	info := analyzeAtom(e)
	s.atoms[e] = info
	return info
}

func constHolds(op sym.Op, d float64) bool {
	switch op {
	case sym.OpEq:
		return d == 0
	case sym.OpNe:
		return d != 0
	case sym.OpLt:
		return d < 0
	case sym.OpLe:
		return d <= 0
	case sym.OpGt:
		return d > 0
	case sym.OpGe:
		return d >= 0
	}
	return true
}

func flipOp(op sym.Op) sym.Op {
	switch op {
	case sym.OpLt:
		return sym.OpGt
	case sym.OpLe:
		return sym.OpGe
	case sym.OpGt:
		return sym.OpLt
	case sym.OpGe:
		return sym.OpLe
	default:
		return op
	}
}

// model searches for a binding of pc's symbols, drawn from a few
// candidates inside each propagated interval, that satisfies every
// conjunct. The outcome is a pure function of the conjuncts (ivs is pc's
// own interval state), so it is searched once per node and cached there;
// the returned binding is that cache and must not be modified.
func (s *Solver) model(pc *PathCondition, ivs map[int]*interval) (sym.Binding, bool) {
	if pc.model == nil {
		b, ok, _ := searchModel(&s.tape, pc.Conjuncts(), ivs, searchBudget)
		pc.model = &modelOutcome{b: b, ok: ok}
	}
	return pc.model.b, pc.model.ok
}

// modelOutcome is one node's cached model search: the model, or ok false
// when the search found none within its budget.
type modelOutcome struct {
	b  sym.Binding
	ok bool
}

// searchBudget bounds the full candidate assignments the model search may
// spend; without it, many nonlinear symbols make the search exponential.
const searchBudget = 4096

// modelSearch is a depth-first search over candidate assignments with
// forward checking. Symbols are ordered by first appearance (conjuncts in
// order, FreeSymbols order inside each) and every conjunct is checked at
// the level where its last symbol binds. A refuted node is charged the full
// assignments below it, capped at the remaining budget — what enumerating
// every full assignment and verifying it would have spent there — so the
// first model found and the give-up point are exactly those of that plain
// enumeration (DESIGN.md §5 item 11).
//
// The conjuncts are flattened once onto a tape (sym.Tape) in the order the
// search checks them, the symbol-free ones first and then level by level,
// so a conjunct's span reads only nodes of its own level or of levels
// whose symbols have not changed since they were checked.
type modelSearch struct {
	tape   *sym.Tape
	spans  []sym.Span // per conjunct
	next   []int32    // next[i]: the next conjunct closing where conj[i] does; -1 ends the list
	levels []level
	budget int
}

// level is one symbol of the search order.
type level struct {
	sm    *sym.Symbol
	slot  int32   // the symbol's tape slot
	cands []int32 // candidate values, in try order
	first int32   // the first conjunct closing at this level (see next); -1 for none
	below int     // full assignments below one node of this level, saturated at searchBudget
	at    int     // the candidate tried last
}

// searchModel runs the model search over conj with the given (positive)
// budget on tape t, and returns the model, whether one was found, and the
// budget left.
func searchModel(t *sym.Tape, conj []sym.Expr, ivs map[int]*interval, budget int) (sym.Binding, bool, int) {
	m := &modelSearch{tape: t, spans: make([]sym.Span, len(conj)), next: make([]int32, len(conj)), budget: budget}
	pos := make(map[int]int32)
	var symbols []*sym.Symbol
	for i, e := range conj {
		last := int32(-1) // the level that closes e; -1 when e is symbol-free
		for _, sm := range sym.FreeSymbols(e) {
			k, ok := pos[sm.ID]
			if !ok {
				k = int32(len(symbols))
				pos[sm.ID] = k
				symbols = append(symbols, sm)
			}
			last = max(last, k)
		}
		m.next[i] = last // threaded into the per-level lists below
	}
	m.levels = make([]level, len(symbols))
	total := 1 // full assignments of every level
	for k := len(symbols) - 1; k >= 0; k-- {
		cands := candidates(ivs[symbols[k].ID])
		m.levels[k] = level{sm: symbols[k], cands: cands, first: -1, below: total}
		total = min(len(cands)*total, searchBudget)
	}
	// Push each conjunct onto its level's list, last conjunct first, so
	// every list runs in conjunct order.
	ground := int32(-1) // the symbol-free conjuncts
	for i := len(conj) - 1; i >= 0; i-- {
		head := &ground
		if k := m.next[i]; k >= 0 {
			head = &m.levels[k].first
		}
		m.next[i], *head = *head, int32(i)
	}
	t.Reset()
	m.flatten(conj, ground)
	for k := range m.levels {
		m.levels[k].slot = t.Slot(symbols[k].ID)
		m.flatten(conj, m.levels[k].first)
	}
	switch {
	case !m.holds(ground):
		m.budget -= min(m.budget, total)
	case len(symbols) == 0:
		m.budget--
		return sym.Binding{}, true, m.budget
	case m.descend(0):
		b := make(sym.Binding, len(symbols))
		for _, lv := range m.levels {
			b[lv.sm.ID] = sym.IntVal(lv.cands[lv.at])
		}
		return b, true, m.budget
	}
	return nil, false, m.budget
}

// flatten adds the conjunct list starting at i to the tape.
func (m *modelSearch) flatten(conj []sym.Expr, i int32) {
	for ; i >= 0; i = m.next[i] {
		m.spans[i] = m.tape.Add(conj[i])
	}
}

// descend tries each candidate of level k in order; it is only entered
// with budget left.
func (m *modelSearch) descend(k int) bool {
	lv := &m.levels[k]
	for at, cand := range lv.cands {
		lv.at = at
		m.tape.Set(lv.slot, sym.IntVal(cand))
		if !m.holds(lv.first) {
			m.budget -= min(m.budget, lv.below)
		} else if k+1 == len(m.levels) {
			m.budget--
			return true
		} else if m.descend(k + 1) {
			return true
		}
		if m.budget <= 0 {
			break
		}
	}
	return false
}

// holds evaluates the conjunct list starting at i; their symbols are all
// set.
func (m *modelSearch) holds(i int32) bool {
	for ; i >= 0; i = m.next[i] {
		v, ok := m.tape.Eval(m.spans[i])
		if !ok || v.IsZero() {
			return false
		}
	}
	return true
}

// candidates enumerates a handful of values inside the interval, skipping
// excluded points.
func candidates(iv *interval) []int32 {
	if iv == nil {
		return []int32{0, 1, -1, 2}
	}
	lo := clampToInt32(math.Ceil(iv.lo))
	hi := clampToInt32(math.Floor(iv.hi))
	if lo > hi {
		return nil
	}
	// Small magnitudes first: witness replays prefer values that stay
	// clear of narrow-type wraparound.
	raw := []int64{0, 1, -1, 2, -2, int64(lo), int64(hi), int64(lo) + 1, int64(hi) - 1, (int64(lo) + int64(hi)) / 2}
	var out []int32
	seenC := make(map[int64]bool)
	for _, v := range raw {
		if v < int64(lo) || v > int64(hi) || seenC[v] || iv.excluded[float64(v)] {
			continue
		}
		seenC[v] = true
		out = append(out, int32(v))
	}
	// If every candidate is excluded, scan a short window.
	if len(out) == 0 {
		for v := int64(lo); v <= int64(hi) && v < int64(lo)+256; v++ {
			if !iv.excluded[float64(v)] {
				out = append(out, int32(v))
				break
			}
		}
	}
	return out
}

func clampToInt32(v float64) int32 {
	if v < math.MinInt32 {
		return math.MinInt32
	}
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(v)
}
