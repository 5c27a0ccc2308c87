package solver

import (
	"maps"
	"math/rand"
	"testing"

	"privacyscope/internal/sym"
)

// modelOracle is the plain model search the forward-checked one must
// equal: enumerate every full candidate assignment depth-first, spending
// one unit of budget per assignment, and verify all conjuncts at each.
// It returns the model, whether one was found, and the budget left.
func modelOracle(conj []sym.Expr, ivs map[int]*interval, budget int) (sym.Binding, bool, int) {
	var symbols []*sym.Symbol
	seen := make(map[int]bool)
	for _, e := range conj {
		for _, sm := range sym.FreeSymbols(e) {
			if !seen[sm.ID] {
				seen[sm.ID] = true
				symbols = append(symbols, sm)
			}
		}
	}
	b := make(sym.Binding, len(symbols))
	if oracleTry(conj, symbols, ivs, b, 0, &budget) {
		return b, true, budget
	}
	return nil, false, budget
}

func oracleTry(conj []sym.Expr, symbols []*sym.Symbol, ivs map[int]*interval, b sym.Binding, idx int, budget *int) bool {
	if *budget <= 0 {
		return false
	}
	if idx == len(symbols) {
		*budget--
		return oracleVerify(conj, b)
	}
	sm := symbols[idx]
	for _, cand := range candidates(ivs[sm.ID]) {
		b[sm.ID] = sym.IntVal(cand)
		if oracleTry(conj, symbols, ivs, b, idx+1, budget) {
			return true
		}
		if *budget <= 0 {
			break
		}
	}
	delete(b, sm.ID)
	return false
}

func oracleVerify(conj []sym.Expr, b sym.Binding) bool {
	for _, e := range conj {
		v, err := sym.Eval(e, b)
		if err != nil || v.IsZero() {
			return false
		}
	}
	return true
}

// modelCase is one generated model-search input.
type modelCase struct {
	pc     *PathCondition
	ivs    map[int]*interval
	budget int
}

// byteSource reads generator choices from fuzz bytes; past the end it
// reads zeros, so every input decodes to some case.
type byteSource struct {
	data []byte
	off  int
}

func (s *byteSource) next() int {
	if s.off >= len(s.data) {
		return 0
	}
	s.off++
	return int(s.data[s.off-1])
}

// genModelCase decodes a conjunct set over up to eight symbols: products
// and sums of squares across symbols, divisions that may hit zero,
// constant, ! and && conjuncts, and single-symbol bounds that narrow the
// propagated intervals and exclude points from them. The intervals are the
// solver's own propagation of the set, as Check and Model see them.
func genModelCase(data []byte) modelCase {
	src := &byteSource{data: data}
	b := newBuilder()
	syms := make([]*sym.Symbol, 1+src.next()%8)
	for i := range syms {
		syms[i] = b.FreshSecret("")
	}
	pick := func() sym.Expr { return syms[src.next()%len(syms)] }
	small := func() sym.Expr { return sym.IntConst{V: int32(src.next()%9 - 3)} }
	op := func() sym.Op { return allComparisons[src.next()%len(allComparisons)] }
	sq := func(x, y sym.Expr) sym.Expr {
		d := &sym.Binary{Op: sym.OpSub, L: x, R: y}
		return &sym.Binary{Op: sym.OpMul, L: d, R: d}
	}
	var atom func(depth int) sym.Expr
	atom = func(depth int) sym.Expr {
		switch k := src.next() % 10; {
		case k == 0:
			return cmp(op(), &sym.Binary{Op: sym.OpMul, L: pick(), R: pick()}, small())
		case k == 1:
			return cmp(op(), &sym.Binary{Op: sym.OpAdd, L: sq(pick(), pick()), R: sq(pick(), pick())}, small())
		case k == 2:
			div := sym.OpDiv
			if src.next()%2 == 0 {
				div = sym.OpRem
			}
			return cmp(op(), &sym.Binary{Op: div, L: small(), R: &sym.Binary{Op: sym.OpSub, L: pick(), R: pick()}}, small())
		case k == 3:
			if src.next()%2 == 0 {
				return sym.IntConst{V: int32(src.next() % 2)}
			}
			return cmp(op(), small(), small())
		case k == 4 && depth < 2:
			return &sym.Unary{Op: sym.OpLNot, X: atom(depth + 1)}
		case k == 5 && depth < 2:
			return &sym.Binary{Op: sym.OpLAnd, L: atom(depth + 1), R: atom(depth + 1)}
		default:
			return cmp(op(), pick(), small())
		}
	}
	pc := True()
	for n := 1 + src.next()%8; n > 0; n-- {
		pc = pc.And(atom(0))
	}
	budget := searchBudget
	if src.next()%2 == 0 {
		budget = 1 + (src.next()<<8|src.next())%searchBudget
	}
	return modelCase{pc: pc, ivs: New().boundsOf(pc).ivs, budget: budget}
}

// requireSameSearch runs both searches on one case and fails on any
// difference in the model, the verdict or the budget left.
func requireSameSearch(t *testing.T, c modelCase) (ok bool, left int) {
	t.Helper()
	conj := c.pc.Conjuncts()
	wantB, wantOK, wantLeft := modelOracle(conj, c.ivs, c.budget)
	gotB, gotOK, gotLeft := searchModel(new(sym.Tape), conj, c.ivs, c.budget)
	if gotOK != wantOK || gotLeft != wantLeft || !maps.Equal(gotB, wantB) {
		t.Fatalf("π = %s, budget %d:\n search: %v %v, %d left\n oracle: %v %v, %d left",
			c.pc, c.budget, gotB, gotOK, gotLeft, wantB, wantOK, wantLeft)
	}
	return gotOK, gotLeft
}

// TestModelSearchMatchesOracle pins the forward-checking invariant on
// seeded random conjunct sets: same model, same verdict, same budget
// spent as the plain enumeration.
func TestModelSearchMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	found, exhausted, refuted := 0, 0, 0
	for i := 0; i < 3000; i++ {
		data := make([]byte, 48)
		r.Read(data)
		ok, left := requireSameSearch(t, genModelCase(data))
		switch {
		case ok:
			found++
		case left == 0:
			exhausted++
		default:
			refuted++
		}
	}
	// All three outcomes must occur, or the comparison proves little.
	if found == 0 || exhausted == 0 || refuted == 0 {
		t.Errorf("coverage: %d found, %d budget-exhausted, %d refuted", found, exhausted, refuted)
	}
}

// TestModelSearchBudgetBoundary puts the give-up point right at the
// budget: candidate products just below, at and above searchBudget, with
// the only model on the last full assignment (found exactly when the
// product fits the budget) or no model at all (the budget runs out or the
// space does).
func TestModelSearchBudgetBoundary(t *testing.T) {
	// Intervals with 2 to 7 candidates each (nil: unbounded, 4).
	domains := map[int]*interval{
		2: {lo: 0, hi: 1},
		3: {lo: -1, hi: 1},
		4: nil,
		5: {lo: -2, hi: 2},
		6: {lo: 0, hi: 100},
		7: {lo: -1, hi: 100},
	}
	for n, iv := range domains {
		if got := len(candidates(iv)); got != n {
			t.Fatalf("domain %d has %d candidates", n, got)
		}
	}
	for _, shape := range [][]int{
		{2, 3, 3, 3, 3, 5, 5},                // 4050: just below
		{2, 2, 2, 2, 2, 2, 7, 3, 3},          // 4032: just below
		{4, 4, 4, 4, 4, 4},                   // 4096: at
		{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, // 4096: at
		{4, 3, 7, 7, 7},                      // 4116: just above
		{5, 5, 5, 5, 7},                      // 4375: above
	} {
		product := 1
		b := newBuilder()
		ivs := make(map[int]*interval)
		var syms []*sym.Symbol
		for _, n := range shape {
			s := b.FreshSecret("")
			syms = append(syms, s)
			if domains[n] != nil {
				ivs[s.ID] = domains[n]
			}
			product *= n
		}
		// Σ (s_i - last_i)² == 0 holds only on the last assignment;
		// Σ s_i² < 0 never holds.
		var onLast, never sym.Expr = sym.IntConst{V: 0}, sym.IntConst{V: 0}
		for _, s := range syms {
			cands := candidates(ivs[s.ID])
			last := sym.IntConst{V: cands[len(cands)-1]}
			d := &sym.Binary{Op: sym.OpSub, L: s, R: last}
			onLast = &sym.Binary{Op: sym.OpAdd, L: onLast, R: &sym.Binary{Op: sym.OpMul, L: d, R: d}}
			never = &sym.Binary{Op: sym.OpAdd, L: never, R: &sym.Binary{Op: sym.OpMul, L: s, R: s}}
		}
		for _, target := range []sym.Expr{
			cmp(sym.OpEq, onLast, sym.IntConst{V: 0}),
			cmp(sym.OpLt, never, sym.IntConst{V: 0}),
		} {
			pc := True().And(target)
			ok, left := requireSameSearch(t, modelCase{pc: pc, ivs: ivs, budget: searchBudget})
			if wantOK := target.(*sym.Binary).Op == sym.OpEq && product <= searchBudget; ok != wantOK {
				t.Errorf("product %d, %s: found = %v, want %v", product, pc, ok, wantOK)
			}
			if wantLeft := max(searchBudget-product, 0); left != wantLeft {
				t.Errorf("product %d, %s: %d budget left, want %d", product, pc, left, wantLeft)
			}
		}
	}
}

// FuzzModelSearch checks the forward-checked search against the plain
// enumeration on arbitrary generated conjunct sets.
func FuzzModelSearch(f *testing.F) {
	f.Add([]byte{7, 7, 1, 0, 1, 2, 3, 1, 4, 5, 6, 7})
	f.Add([]byte{3, 5, 2, 0, 0, 1, 2, 1, 1})
	f.Add([]byte{5, 4, 4, 4, 5, 3, 0xce, 0xfa, 0xed, 0xfe})
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSameSearch(t, genModelCase(data))
	})
}
