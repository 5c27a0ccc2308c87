package solver

import (
	"testing"
	"testing/quick"
	"time"

	"privacyscope/internal/obs"
	"privacyscope/internal/sym"
	"privacyscope/internal/taint"
)

func newBuilder() *sym.Builder {
	var alloc taint.Allocator
	return sym.NewBuilder(&alloc)
}

func cmp(op sym.Op, l, r sym.Expr) sym.Expr { return &sym.Binary{Op: op, L: l, R: r} }

func TestPathConditionBasics(t *testing.T) {
	b := newBuilder()
	s := b.FreshSecret("")
	pc := True()
	if pc.String() != "True" || pc.Len() != 0 {
		t.Errorf("empty pc = %q/%d", pc.String(), pc.Len())
	}
	pc2 := pc.And(cmp(sym.OpEq, s, sym.IntConst{V: 19}))
	if pc2.Len() != 1 {
		t.Errorf("Len after And = %d", pc2.Len())
	}
	if pc.Len() != 0 {
		t.Error("And must be persistent")
	}
	if pc2.String() != "s1 == 19" {
		t.Errorf("String = %q", pc2.String())
	}
	// Constant-true conjuncts are dropped.
	if pc.And(sym.IntConst{V: 1}).Len() != 0 {
		t.Error("true conjunct must be dropped")
	}
}

func TestNegateLast(t *testing.T) {
	b := newBuilder()
	s := b.FreshSecret("")
	pc := True().And(cmp(sym.OpEq, s, sym.IntConst{V: 0}))
	neg := pc.NegateLast()
	if neg.String() != "s1 != 0" {
		t.Errorf("NegateLast = %q", neg.String())
	}
	if pc.String() != "s1 == 0" {
		t.Error("NegateLast must not mutate the original")
	}
	if True().NegateLast().Len() != 0 {
		t.Error("NegateLast of empty pc must be a no-op")
	}
}

func TestPathConditionTaint(t *testing.T) {
	b := newBuilder()
	s1 := b.FreshSecret("")
	s2 := b.FreshSecret("")
	pub := b.FreshPublic("p")

	if !True().Taint().IsBottom() {
		t.Error("empty π must be ⊥")
	}
	one := True().And(cmp(sym.OpEq, s1, sym.IntConst{V: 3}))
	if !one.Taint().Equal(taint.Single(s1.Tag)) {
		t.Errorf("π taint = %v, want t1", one.Taint())
	}
	two := one.And(cmp(sym.OpGt, s2, sym.IntConst{V: 0}))
	if !two.Taint().IsTop() {
		t.Errorf("π with two secrets = %v, want ⊤", two.Taint())
	}
	pubOnly := True().And(cmp(sym.OpGt, pub, sym.IntConst{V: 0}))
	if !pubOnly.Taint().IsBottom() {
		t.Error("public-only π must be ⊥")
	}
	if got := two.SecretTags(); len(got) != 2 {
		t.Errorf("SecretTags = %v", got)
	}
}

func TestCheckSatisfiable(t *testing.T) {
	b := newBuilder()
	s := b.FreshSecret("")
	sv := New()

	tests := []struct {
		name string
		pc   *PathCondition
		want Result
	}{
		{"empty", True(), Sat},
		{"eq", True().And(cmp(sym.OpEq, s, sym.IntConst{V: 19})), Sat},
		{"range", True().And(cmp(sym.OpGt, s, sym.IntConst{V: 0})).And(cmp(sym.OpLt, s, sym.IntConst{V: 10})), Sat},
		{"ne", True().And(cmp(sym.OpNe, s, sym.IntConst{V: 0})), Sat},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := sv.Check(tt.pc); got != tt.want {
				t.Errorf("Check = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCheckUnsatisfiable(t *testing.T) {
	b := newBuilder()
	s := b.FreshSecret("")
	sv := New()

	tests := []struct {
		name string
		pc   *PathCondition
	}{
		{"const-false", True().And(sym.IntConst{V: 0})},
		{"eq-conflict", True().And(cmp(sym.OpEq, s, sym.IntConst{V: 1})).And(cmp(sym.OpEq, s, sym.IntConst{V: 2}))},
		{"lt-gt-conflict", True().And(cmp(sym.OpLt, s, sym.IntConst{V: 0})).And(cmp(sym.OpGt, s, sym.IntConst{V: 10}))},
		{"eq-ne-conflict", True().And(cmp(sym.OpEq, s, sym.IntConst{V: 5})).And(cmp(sym.OpNe, s, sym.IntConst{V: 5}))},
		{"empty-int-window", True().And(cmp(sym.OpGt, s, sym.IntConst{V: 3})).And(cmp(sym.OpLt, s, sym.IntConst{V: 4}))},
		{"affine-conflict", True().
			And(cmp(sym.OpEq, sym.NewBinary(sym.OpMul, sym.IntConst{V: 2}, s), sym.IntConst{V: 8})).
			And(cmp(sym.OpNe, s, sym.IntConst{V: 4}))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := sv.Check(tt.pc); got != Unsat {
				t.Errorf("Check = %v, want unsat", got)
			}
			if sv.Feasible(tt.pc) {
				t.Error("Feasible must be false for unsat")
			}
		})
	}
}

func TestCheckNegativeCoefficient(t *testing.T) {
	b := newBuilder()
	s := b.FreshSecret("")
	sv := New()
	// -s > 0 ∧ s > 0 is unsat.
	pc := True().
		And(cmp(sym.OpGt, &sym.Unary{Op: sym.OpNeg, X: s}, sym.IntConst{V: 0})).
		And(cmp(sym.OpGt, s, sym.IntConst{V: 0}))
	if got := sv.Check(pc); got != Unsat {
		t.Errorf("Check = %v, want unsat", got)
	}
}

func TestFeasibleIsSoundOnOpaque(t *testing.T) {
	b := newBuilder()
	s1 := b.FreshSecret("")
	s2 := b.FreshSecret("")
	sv := New()
	// Non-linear conjunct: s1*s2 == 6. The solver cannot decide it but
	// must not claim unsat.
	pc := True().And(cmp(sym.OpEq, &sym.Binary{Op: sym.OpMul, L: s1, R: s2}, sym.IntConst{V: 6}))
	if !sv.Feasible(pc) {
		t.Error("opaque conjunct must stay feasible")
	}
}

func TestModel(t *testing.T) {
	b := newBuilder()
	s := b.FreshSecret("")
	sv := New()

	pc := True().
		And(cmp(sym.OpGe, s, sym.IntConst{V: 10})).
		And(cmp(sym.OpLe, s, sym.IntConst{V: 12})).
		And(cmp(sym.OpNe, s, sym.IntConst{V: 10}))
	m, ok := sv.Model(pc, nil)
	if !ok {
		t.Fatal("Model failed on sat pc")
	}
	v := m[s.ID]
	if v.AsInt() < 10 || v.AsInt() > 12 || v.AsInt() == 10 {
		t.Errorf("model value = %v", v)
	}

	if _, ok := sv.Model(True().And(sym.IntConst{V: 0}), nil); ok {
		t.Error("Model must fail on unsat pc")
	}
}

func TestModelBindsExtras(t *testing.T) {
	b := newBuilder()
	s := b.FreshSecret("")
	other := b.FreshSecret("")
	sv := New()
	pc := True().And(cmp(sym.OpEq, s, sym.IntConst{V: 3}))
	m, ok := sv.Model(pc, []*sym.Symbol{other})
	if !ok {
		t.Fatal("Model failed")
	}
	if _, bound := m[other.ID]; !bound {
		t.Error("extra symbol must receive a binding")
	}
}

// TestModelSearchedOncePerNode: the search outcome is cached on the path
// condition, but every call still counts as a query and returns its own
// binding with its own extras.
func TestModelSearchedOncePerNode(t *testing.T) {
	b := newBuilder()
	s := b.FreshSecret("")
	extra := b.FreshSecret("")
	m := obs.NewMetrics()
	sv := NewObserved(m)
	pc := True().And(cmp(sym.OpGt, s, sym.IntConst{V: 40}))

	first, ok1 := sv.Model(pc, []*sym.Symbol{extra})
	cached := pc.model
	second, ok2 := sv.Model(pc, nil)
	if !ok1 || !ok2 {
		t.Fatal("Model failed on a sat pc")
	}
	if cached == nil || pc.model != cached {
		t.Fatal("second call re-ran the search instead of reusing the node's outcome")
	}
	if got := m.Counter("solver.queries"); got != 2 {
		t.Fatalf("solver.queries = %d, want 2 (one per call)", got)
	}
	if first[s.ID] != second[s.ID] {
		t.Fatalf("calls disagree: %v vs %v", first, second)
	}
	if _, bound := second[extra.ID]; bound {
		t.Fatal("the first call's extra leaked into the second call's binding")
	}
	first[s.ID] = sym.IntVal(-1)
	if third, _ := sv.Model(pc, nil); third[s.ID] == sym.IntVal(-1) {
		t.Fatal("modifying a returned binding changed the cached model")
	}

	// A search that gives up is cached too.
	none := True().And(cmp(sym.OpEq, &sym.Binary{Op: sym.OpMul, L: s, R: s}, sym.IntConst{V: 99991}))
	if _, ok := sv.Model(none, nil); ok {
		t.Fatal("no small candidate squares to 99991")
	}
	if none.model == nil || none.model.ok {
		t.Fatal("failed search not cached on the node")
	}
}

func TestModelMultiSymbol(t *testing.T) {
	b := newBuilder()
	s1 := b.FreshSecret("")
	s2 := b.FreshSecret("")
	sv := New()
	pc := True().
		And(cmp(sym.OpEq, s1, sym.IntConst{V: 7})).
		And(cmp(sym.OpGt, s2, sym.IntConst{V: 100}))
	m, ok := sv.Model(pc, nil)
	if !ok {
		t.Fatal("Model failed")
	}
	if m[s1.ID].AsInt() != 7 || m[s2.ID].AsInt() <= 100 {
		t.Errorf("model = %v", m)
	}
}

func TestFlattenHandlesLAndAndLNot(t *testing.T) {
	b := newBuilder()
	s := b.FreshSecret("")
	sv := New()
	// (s > 0 && s < 5) ∧ !(s == 2) is sat with model in {1,3,4}.
	conj := &sym.Binary{
		Op: sym.OpLAnd,
		L:  cmp(sym.OpGt, s, sym.IntConst{V: 0}),
		R:  cmp(sym.OpLt, s, sym.IntConst{V: 5}),
	}
	not := &sym.Unary{Op: sym.OpLNot, X: cmp(sym.OpEq, s, sym.IntConst{V: 2})}
	pc := True().And(conj).And(not)
	m, ok := sv.Model(pc, nil)
	if !ok {
		t.Fatal("Model failed")
	}
	v := m[s.ID].AsInt()
	if v <= 0 || v >= 5 || v == 2 {
		t.Errorf("model = %d", v)
	}
	// And the unsat variant: exclude the whole window.
	pc2 := True().And(conj).
		And(cmp(sym.OpNe, s, sym.IntConst{V: 1})).
		And(cmp(sym.OpNe, s, sym.IntConst{V: 2})).
		And(cmp(sym.OpNe, s, sym.IntConst{V: 3})).
		And(cmp(sym.OpNe, s, sym.IntConst{V: 4}))
	if got := sv.Check(pc2); got != Unsat {
		t.Errorf("fully excluded window: Check = %v, want unsat", got)
	}
}

func TestResultString(t *testing.T) {
	if Unsat.String() != "unsat" || Sat.String() != "sat" || Unknown.String() != "unknown" {
		t.Error("Result String wrong")
	}
}

// Property: a model returned by the solver always satisfies the condition
// it was derived from.
func TestModelAlwaysVerifies(t *testing.T) {
	sv := New()
	f := func(lo, hi int16, ex int16) bool {
		b := newBuilder()
		s := b.FreshSecret("")
		pc := True().
			And(cmp(sym.OpGe, s, sym.IntConst{V: int32(lo)})).
			And(cmp(sym.OpLe, s, sym.IntConst{V: int32(hi)})).
			And(cmp(sym.OpNe, s, sym.IntConst{V: int32(ex)}))
		m, ok := sv.Model(pc, nil)
		if !ok {
			// Must genuinely be unsat-ish: empty window or window == {ex}.
			return int32(lo) > int32(hi) || (lo == hi && lo == ex)
		}
		for _, e := range pc.Conjuncts() {
			v, err := sym.Eval(e, m)
			if err != nil || v.IsZero() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Check never returns Unsat for an equality pinning a symbol to
// an arbitrary representable constant.
func TestPointEqualityAlwaysSat(t *testing.T) {
	sv := New()
	f := func(v int32) bool {
		b := newBuilder()
		s := b.FreshSecret("")
		pc := True().And(cmp(sym.OpEq, s, sym.IntConst{V: v}))
		return sv.Check(pc) == Sat
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFeasibleSkipsModelSearch(t *testing.T) {
	// A conjunction of opaque (non-linear) constraints over many symbols
	// must be decided as feasible quickly — Feasible never runs the
	// model search.
	b := newBuilder()
	sv := New()
	pc := True()
	for i := 0; i < 12; i++ {
		s1 := b.FreshSecret("")
		s2 := b.FreshSecret("")
		pc = pc.And(cmp(sym.OpGt, &sym.Binary{Op: sym.OpMul, L: s1, R: s2}, sym.IntConst{V: int32(i)}))
	}
	start := time.Now()
	if !sv.Feasible(pc) {
		t.Error("opaque conjunction must stay feasible")
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("Feasible took %v; model search must not run", elapsed)
	}
}

func TestModelSearchBudget(t *testing.T) {
	// Many nonlinear symbols: the model search must give up within its
	// budget rather than exploring the full candidate product.
	b := newBuilder()
	sv := New()
	pc := True()
	var syms []*sym.Symbol
	for i := 0; i < 10; i++ {
		s1 := b.FreshSecret("")
		s2 := b.FreshSecret("")
		syms = append(syms, s1, s2)
		// s1*s2 == large odd prime-ish value: no small-candidate model.
		pc = pc.And(cmp(sym.OpEq, &sym.Binary{Op: sym.OpMul, L: s1, R: s2}, sym.IntConst{V: 99991}))
	}
	start := time.Now()
	_, ok := sv.Model(pc, syms)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Model took %v; budget not enforced", elapsed)
	}
	_ = ok // either verdict is acceptable; termination is the property
}

func TestCheckFlipsAllComparisonOps(t *testing.T) {
	b := newBuilder()
	sv := New()
	s := b.FreshSecret("")
	neg := sym.NewBinary(sym.OpMul, sym.IntConst{V: -2}, s)
	tests := []struct {
		name  string
		pc    *PathCondition
		unsat bool
	}{
		// -2s < -10 ⇒ s > 5; combined with s < 3 → unsat.
		{"lt-flip", True().And(cmp(sym.OpLt, neg, sym.IntConst{V: -10})).And(cmp(sym.OpLt, s, sym.IntConst{V: 3})), true},
		// -2s <= -10 ⇒ s >= 5; with s == 5 → sat.
		{"le-flip", True().And(cmp(sym.OpLe, neg, sym.IntConst{V: -10})).And(cmp(sym.OpEq, s, sym.IntConst{V: 5})), false},
		// -2s >= 10 ⇒ s <= -5; with s > 0 → unsat.
		{"ge-flip", True().And(cmp(sym.OpGe, neg, sym.IntConst{V: 10})).And(cmp(sym.OpGt, s, sym.IntConst{V: 0})), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := sv.Check(tt.pc)
			if tt.unsat && got != Unsat {
				t.Errorf("Check = %v, want unsat", got)
			}
			if !tt.unsat && got == Unsat {
				t.Errorf("Check = unsat, want sat/unknown")
			}
		})
	}
}

func TestConstantConjunctVerdicts(t *testing.T) {
	sv := New()
	// Comparisons that fold: 3 < 5 is dropped at And (constant true after
	// folding), 5 < 3 folds to 0 and makes the pc unsat.
	pcTrue := True().And(sym.NewBinary(sym.OpLt, sym.IntConst{V: 3}, sym.IntConst{V: 5}))
	if sv.Check(pcTrue) != Sat {
		t.Error("trivially true pc must be sat")
	}
	pcFalse := True().And(sym.NewBinary(sym.OpLt, sym.IntConst{V: 5}, sym.IntConst{V: 3}))
	if sv.Check(pcFalse) != Unsat {
		t.Error("trivially false pc must be unsat")
	}
}
