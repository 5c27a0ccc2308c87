package sym

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"privacyscope/internal/taint"
)

// genExprs builds a deterministic pool of expressions over one builder,
// mixing plain construction with interned construction, duplicates with
// distinct shapes, and the float edge cases (NaN, ±0) the folding matrix
// covers. Returned pairs of structurally equal expressions are guaranteed
// to exist (each shape is built twice through different routes).
func genExprs(in *Interner, b *Builder, rng *rand.Rand, n int) []Expr {
	leaves := []Expr{
		IntConst{V: 0}, IntConst{V: 1}, IntConst{V: -7},
		FloatConst{V: 0.0}, FloatConst{V: math.Copysign(0, -1)},
		FloatConst{V: 2.5}, FloatConst{V: math.NaN()},
		b.FreshSecret("s"), b.FreshPublic("p"), b.FreshEntropy("e"),
	}
	pool := append([]Expr(nil), leaves...)
	ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpLt, OpEq, OpLAnd, OpXor}
	for len(pool) < n {
		l := pool[rng.Intn(len(pool))]
		r := pool[rng.Intn(len(pool))]
		op := ops[rng.Intn(len(ops))]
		switch rng.Intn(4) {
		case 0:
			pool = append(pool, NewBinary(op, l, r), in.NewBinary(op, l, r))
		case 1:
			pool = append(pool, NewUnary(OpNeg, l), in.NewUnary(OpNeg, l))
		case 2:
			pool = append(pool, NewCall("sqrt", []Expr{l}), in.NewCall("sqrt", []Expr{l}))
		default:
			pool = append(pool, Negate(l), in.Negate(l))
		}
	}
	return pool
}

// TestInternPropertyPairs is the satellite property test: for every pair in
// a generated pool, Intern(a) == Intern(b) (pointer/value identity) holds
// exactly when sym.Equal(a, b) (structural) does — including the NaN and
// ±0 edge cases of TestFloatFoldingMatrix. Every node's label must also
// match the walk over its free symbols.
func TestInternPropertyPairs(t *testing.T) {
	in := NewInterner()
	b := newTestBuilder()
	pool := genExprs(in, b, rand.New(rand.NewSource(1)), 300)
	canon := make([]Expr, len(pool))
	for i, e := range pool {
		canon[i] = in.Intern(e)
		if !Equal(e, canon[i]) && !structuralNaN(e) {
			t.Fatalf("Intern changed structure: %s vs %s", e, canon[i])
		}
		checkLabel(t, e)
		checkLabel(t, canon[i])
	}
	for i := range pool {
		for j := range pool {
			same := canon[i] == canon[j]
			eq := Equal(pool[i], pool[j])
			if same != eq {
				t.Fatalf("iff violated: Intern(%s)==Intern(%s) is %v but Equal is %v",
					pool[i], pool[j], same, eq)
			}
		}
	}
}

// structuralNaN reports whether e contains a NaN constant — the one case
// where Equal(e, e') is false even for an identical rebuild, matching C
// semantics (NaN != NaN). Intern never merges such nodes.
func structuralNaN(e Expr) bool {
	switch v := e.(type) {
	case FloatConst:
		return math.IsNaN(v.V)
	case *Binary:
		return structuralNaN(v.L) || structuralNaN(v.R)
	case *Unary:
		return structuralNaN(v.X)
	case *Call:
		for _, a := range v.Args {
			if structuralNaN(a) {
				return true
			}
		}
	}
	return false
}

// TestInternFloatEdgeCases pins the two deliberate float decisions: ±0
// children intern to one canonical node (sym.Equal and Go map keys agree
// that +0 == -0), while NaN-bearing composites are never canonicalized —
// each build is a fresh pointer AND structurally unequal, keeping the iff
// property exact.
func TestInternFloatEdgeCases(t *testing.T) {
	in := NewInterner()
	b := newTestBuilder()
	s := b.FreshSecret("s")

	plusZero := in.NewBinary(OpAdd, s, FloatConst{V: 0.5})
	negZero := in.NewBinary(OpMul, s, FloatConst{V: math.Copysign(0, -1)})
	posZero := in.NewBinary(OpMul, s, FloatConst{V: 0.0})
	_ = plusZero
	if negZero != posZero {
		t.Errorf("±0 children must intern to one node: %s vs %s", negZero, posZero)
	}
	if !Equal(negZero, posZero) {
		t.Errorf("Equal must agree that ±0 composites are equal")
	}

	nan := FloatConst{V: math.NaN()}
	n1 := in.NewBinary(OpAdd, s, nan)
	n2 := in.NewBinary(OpAdd, s, nan)
	if n1 == n2 {
		t.Error("NaN-bearing composites must not be merged")
	}
	if Equal(n1, n2) {
		t.Error("Equal(NaN composite, NaN composite) must be false (NaN != NaN)")
	}
	if Interned(n1) || Interned(n2) {
		t.Error("NaN-bearing composites must not claim canonical status")
	}

	// The folding matrix cases fold to constants; interned construction
	// must fold identically (constructor semantics unchanged).
	a, c := FloatConst{V: 7.5}, FloatConst{V: 2.5}
	for _, op := range []Op{OpAdd, OpSub, OpMul, OpDiv, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		plain := NewBinary(op, a, c)
		interned := in.NewBinary(op, a, c)
		if !Equal(plain, interned) {
			t.Errorf("%v: interned fold %s differs from plain fold %s", op, interned, plain)
		}
	}
}

// TestInternEqualFastPathAllocs pins the satellite fix: Equal must not
// allocate its memo map when the answer is decidable at the root —
// identical pointers, or two distinct canonical nodes of one arena.
func TestInternEqualFastPathAllocs(t *testing.T) {
	in := NewInterner()
	b := newTestBuilder()
	s := b.FreshSecret("s")
	x := in.NewBinary(OpAdd, s, IntConst{V: 1})
	y := in.NewBinary(OpMul, s, IntConst{V: 3})

	if n := testing.AllocsPerRun(100, func() {
		if !Equal(x, x) {
			t.Fatal("Equal(x, x) = false")
		}
	}); n != 0 {
		t.Errorf("Equal(x, x) allocates %.0f objects per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if Equal(x, y) {
			t.Fatal("Equal(x, y) = true")
		}
	}); n != 0 {
		t.Errorf("interned Equal(x, y) allocates %.0f objects per run, want 0", n)
	}
}

// BenchmarkEqualRootPointer is the regression benchmark for the memo-map
// fast path: comparing a node with itself must be O(1) and allocation-free.
func BenchmarkEqualRootPointer(b *testing.B) {
	bl := newTestBuilder()
	s := bl.FreshSecret("s")
	var e Expr = s
	for i := 0; i < 32; i++ {
		e = NewBinary(OpAdd, e, NewBinary(OpMul, s, IntConst{V: int32(i)}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Equal(e, e) {
			b.Fatal("Equal(e, e) = false")
		}
	}
}

// BenchmarkEqualInterned measures the arena fast path on structurally
// distinct canonical nodes (the common solver-cache comparison).
func BenchmarkEqualInterned(b *testing.B) {
	in := NewInterner()
	bl := newTestBuilder()
	s := bl.FreshSecret("s")
	x := in.NewBinary(OpAdd, s, IntConst{V: 1})
	y := in.NewBinary(OpAdd, s, IntConst{V: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Equal(x, y) {
			b.Fatal("Equal(x, y) = true")
		}
	}
}

// FuzzIntern drives random construction sequences through one arena and
// checks the invariant the whole design rests on: interned identity and
// structural equality never disagree. Wired into make fuzz-smoke.
func FuzzIntern(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 0x01, 0xfe})
	f.Add([]byte("interning"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := NewInterner()
		b := newTestBuilder()
		leaves := []Expr{
			IntConst{V: 0}, IntConst{V: 1},
			FloatConst{V: 0}, FloatConst{V: math.Copysign(0, -1)}, FloatConst{V: math.NaN()},
			b.FreshSecret("s"), b.FreshPublic("p"),
			b.FreshSecret("t"), b.FreshSecret("u"), b.FreshEntropy("e"),
		}
		ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpRem, OpLt, OpLe, OpEq, OpNe, OpLAnd, OpLOr, OpXor, OpShl}
		pool := append([]Expr(nil), leaves...)
		for i := 0; i+2 < len(data) && len(pool) < 96; i += 3 {
			l := pool[int(data[i])%len(pool)]
			r := pool[int(data[i+1])%len(pool)]
			op := ops[int(data[i+2])%len(ops)]
			switch data[i] % 5 {
			case 0:
				pool = append(pool, NewBinary(op, l, r))
			case 1:
				pool = append(pool, in.NewBinary(op, l, r))
			case 2:
				pool = append(pool, in.NewUnary(OpLNot, l), NewUnary(OpNeg, r))
			case 3:
				pool = append(pool, in.NewCall("pow", []Expr{l, r}))
			default:
				pool = append(pool, in.Intern(NewBinary(op, l, r)))
			}
		}
		canon := make([]Expr, len(pool))
		for i, e := range pool {
			canon[i] = in.Intern(e)
		}
		for i := range pool {
			for j := range pool {
				same := canon[i] == canon[j]
				eq := Equal(pool[i], pool[j])
				if same != eq {
					t.Fatalf("intern/structural equality disagree on %s vs %s: interned=%v structural=%v",
						pool[i], pool[j], same, eq)
				}
			}
		}
		for _, e := range append(pool, canon...) {
			checkLabel(t, e)
		}
	})
}

// checkLabel compares the label an arena stored with e (or the walk, for
// any other node) with a filter over e's free symbols.
func checkLabel(t *testing.T, e Expr) {
	t.Helper()
	var tags []taint.Tag
	entropy := false
	for _, s := range FreeSymbols(e) {
		if s.Secret() {
			tags = append(tags, s.Tag)
		}
		entropy = entropy || s.Entropy
	}
	if got := SecretTags(e); !slices.Equal(got, tags) {
		t.Fatalf("SecretTags(%s) = %v, its free symbols carry %v", e, got, tags)
	}
	if got := HasEntropy(e); got != entropy {
		t.Fatalf("HasEntropy(%s) = %v, want %v", e, got, entropy)
	}
	if got, want := TaintOf(e), taint.FromTags(tags); !got.Equal(want) {
		t.Fatalf("TaintOf(%s) = %v, want %v", e, got, want)
	}
}

// TestInternTaintLabelsPastStoredBound checks the labels of a chain that
// adds one secret per node until its tags no longer fit a stored list.
func TestInternTaintLabelsPastStoredBound(t *testing.T) {
	in := NewInterner()
	b := newTestBuilder()
	var sum Expr = IntConst{V: 0}
	for i := 0; i < maxStoredTags+8; i++ {
		sum = in.NewBinary(OpAdd, sum, b.FreshSecret(""))
		checkLabel(t, sum)
		checkLabel(t, in.NewUnary(OpNeg, sum))
	}
}

// TestInternTaintLabelAllocs pins the label reads on an interned node at
// zero allocations, and the node sizes the label must fit in.
func TestInternTaintLabelAllocs(t *testing.T) {
	in := NewInterner()
	b := newTestBuilder()
	s1, s2, r := b.FreshSecret(""), b.FreshSecret(""), b.FreshEntropy("r")
	one := in.NewBinary(OpMul, s1, IntConst{V: 3})
	top := in.NewCall("pow", []Expr{in.NewBinary(OpAdd, one, s2), r})
	for _, e := range []Expr{one, top, in.NewUnary(OpNeg, top)} {
		if n := testing.AllocsPerRun(100, func() {
			if TaintOf(e).IsBottom() || len(SecretTags(e)) == 0 || HasEntropy(e) != (e != one) {
				t.Fatalf("wrong label on %s", e)
			}
		}); n != 0 {
			t.Errorf("reading the label of %s allocates %.0f times, want 0", e, n)
		}
	}
	for _, c := range []struct {
		node string
		size uintptr
		want uintptr
	}{
		{"Binary", unsafe.Sizeof(Binary{}), 64},
		{"Unary", unsafe.Sizeof(Unary{}), 48},
		{"Call", unsafe.Sizeof(Call{}), 64},
	} {
		if c.size > c.want {
			t.Errorf("%s is %d bytes, past its %d-byte size class", c.node, c.size, c.want)
		}
	}
}
