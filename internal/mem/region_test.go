package mem

import (
	"testing"
	"unsafe"

	"privacyscope/internal/sym"
	"privacyscope/internal/taint"
)

func newSymBuilder() *sym.Builder {
	var alloc taint.Allocator
	return sym.NewBuilder(&alloc)
}

func TestManagerHashConsing(t *testing.T) {
	m := NewManager()
	// Variable regions are minted, not hash-consed: each call is a new
	// variable (a new frame slot or a shadowing declaration), even under
	// the same name.
	a := m.Var("x")
	b := m.Var("x")
	if a == b {
		t.Error("each Var call must mint a distinct region")
	}
	if a.Key() == b.Key() || a.String() == b.String() {
		t.Error("distinct variable regions must have distinct keys and names")
	}
	if m.Var("y") == a {
		t.Error("different name must yield different region")
	}

	e1 := m.Element(a, 0)
	e2 := m.Element(a, 0)
	if e1 != e2 {
		t.Error("same element must be hash-consed")
	}
	if m.Element(a, 1) == e1 {
		t.Error("different index must differ")
	}

	f1 := m.Field(a, "weight")
	f2 := m.Field(a, "weight")
	if f1 != f2 {
		t.Error("same field must be hash-consed")
	}

	sb := newSymBuilder()
	p := sb.FreshSecret("secrets")
	s1 := m.SymBlock(p, "secrets", true)
	s2 := m.SymBlock(p, "secrets", true)
	if s1 != s2 {
		t.Error("same pointee must yield same SymRegion")
	}
	if !s1.SecretSource {
		t.Error("SecretSource lost")
	}
	// x, x, y, element 0, element 1, field, block: the count includes
	// every minted variable region.
	if m.RegionCount() != 7 {
		t.Errorf("RegionCount = %d, want 7", m.RegionCount())
	}
}

func TestRegionStringsAndKeys(t *testing.T) {
	m := NewManager()
	sb := newSymBuilder()
	p := sb.FreshSecret("secrets")
	blk := m.SymBlock(p, "secrets", true)
	el := m.Element(blk, 1)
	if el.String() != "reg0[1]" {
		t.Errorf("element String = %q, want reg0[1]", el.String())
	}
	v := m.Var("temporary")
	fl := m.Field(v, "bias")
	if fl.Key() == el.Key() {
		t.Error("distinct regions must have distinct keys")
	}
	if Root(el) != blk {
		t.Error("Root of element must be the block")
	}
	if Root(v) != v {
		t.Error("Root of var is itself")
	}
	if el.Super() != blk || fl.Super() != v {
		t.Error("Super links wrong")
	}
	if v.Super() != nil || blk.Super() != nil {
		t.Error("roots must have nil Super")
	}
}

// TestRegionKeysAreLazy pins when a key is built: not when the Manager
// mints the region, but on the region's first Key call, after which it is
// kept. A variable region stays in its 64-byte size class.
func TestRegionKeysAreLazy(t *testing.T) {
	m := NewManager()
	sb := newSymBuilder()
	blk := m.SymBlock(sb.FreshPublic("p"), "buf", false)
	v := m.Var("x")
	el, fl := m.Element(blk, 2), m.Field(v, "w")
	for _, n := range []*node{&blk.node, &v.node, &el.node, &fl.node} {
		if n.key != "" {
			t.Errorf("region %s has key %q before any Key call", n.loc.R, n.key)
		}
	}
	for r, want := range map[Region]string{blk: "sym0", v: "v1", el: "sym0[2]", fl: "v1.w"} {
		if got := r.Key(); got != want {
			t.Errorf("%s: Key = %q, want %q", r, got, want)
		}
		if n := testing.AllocsPerRun(10, func() { r.Key() }); n != 0 {
			t.Errorf("%s: a second Key call allocates %.0f times", r, n)
		}
	}
	if size := unsafe.Sizeof(VarRegion{}); size > 64 {
		t.Errorf("VarRegion is %d bytes, past its 64-byte size class", size)
	}
}

func TestStoreBasics(t *testing.T) {
	m := NewManager()
	st := m.NewStore()
	x := m.Var("x")
	if _, ok := st.Lookup(x); ok {
		t.Error("empty store must miss")
	}
	st.Bind(x, sym.IntConst{V: 42})
	v, ok := st.Lookup(x)
	if !ok {
		t.Fatal("Lookup after Bind failed")
	}
	if v.String() != "42" {
		t.Errorf("value = %q", v.String())
	}
	st.Bind(x, Undefined{})
	v, _ = st.Lookup(x)
	if _, isUndef := v.(Undefined); !isUndef {
		t.Error("rebind must overwrite")
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d after rebinding one region, want 1", st.Len())
	}
}

func TestStoreCloneIndependent(t *testing.T) {
	m := NewManager()
	st := m.NewStore()
	x := m.Var("x")
	st.Bind(x, sym.IntConst{V: 1})
	c := st.Clone()
	c.Bind(x, sym.IntConst{V: 2})
	v, _ := st.Lookup(x)
	if v.String() != "1" {
		t.Error("clone mutation leaked into original")
	}
}

func TestStoreBindingsSorted(t *testing.T) {
	m := NewManager()
	st := m.NewStore()
	sb := newSymBuilder()
	blk := m.SymBlock(sb.FreshPublic("p"), "p", false)
	st.Bind(m.Element(blk, 2), sym.IntConst{V: 2})
	st.Bind(m.Element(blk, 0), sym.IntConst{V: 0})
	st.Bind(m.Element(blk, 1), sym.IntConst{V: 1})
	bs := st.Bindings()
	if len(bs) != 3 {
		t.Fatalf("Bindings len = %d", len(bs))
	}
	for i := 1; i < len(bs); i++ {
		if bs[i-1].Region.Key() > bs[i].Region.Key() {
			t.Error("Bindings not sorted")
		}
	}
}

func TestSubRegionsOf(t *testing.T) {
	m := NewManager()
	st := m.NewStore()
	sb := newSymBuilder()
	blk := m.SymBlock(sb.FreshSecret("secrets"), "secrets", true)
	other := m.Var("x")
	st.Bind(m.Element(blk, 0), sym.IntConst{V: 1})
	st.Bind(m.Element(blk, 1), sym.IntConst{V: 2})
	st.Bind(other, sym.IntConst{V: 3})
	subs := st.SubRegionsOf(blk)
	if len(subs) != 2 {
		t.Fatalf("SubRegionsOf = %v", subs)
	}
	for _, r := range subs {
		if Root(r) != blk {
			t.Error("wrong root in SubRegionsOf result")
		}
	}
}

func TestEnv(t *testing.T) {
	m := NewManager()
	env := NewEnv()
	r := m.Var("secrets")
	env.Bind("secrets", r)
	got, ok := env.Lookup("secrets")
	if !ok || got != r {
		t.Error("env Lookup failed")
	}
	if _, ok := env.Lookup("missing"); ok {
		t.Error("missing lvalue should miss")
	}
	c := env.Clone()
	c.Bind("x", m.Var("x"))
	if env.Len() != 1 || c.Len() != 2 {
		t.Error("clone independence broken")
	}
	bs := c.Bindings()
	if len(bs) != 2 || bs[0].LValue > bs[1].LValue {
		t.Error("Bindings not sorted")
	}
}

func TestSValStrings(t *testing.T) {
	m := NewManager()
	r := m.Var("x")
	if r.Addr().String() != "&reg0" {
		t.Errorf("Loc String = %q", r.Addr().String())
	}
	if (Undefined{}).String() != "undef" {
		t.Error("Undefined String wrong")
	}
	var scalar SVal = sym.IntConst{V: 7}
	if scalar.String() != "7" {
		t.Error("scalar String wrong")
	}
}

// TestAddrAllocatesNothing: a region's address is part of the region, so
// taking it allocates nothing.
func TestAddrAllocatesNothing(t *testing.T) {
	m := NewManager()
	r := m.Element(m.Var("a"), 3)
	loc, ok := r.Addr().(*Loc)
	if !ok || loc.R != Region(r) || r.Addr() != r.Addr() || r.Addr().String() != "&reg0[3]" {
		t.Fatalf("Addr = %v", r.Addr())
	}
	var sink SVal
	if n := testing.AllocsPerRun(100, func() { sink = r.Addr() }); n != 0 {
		t.Errorf("Addr allocates %v times", n)
	}
	_ = sink
}
