// Package mem implements the region-based memory model used by the MiniC
// symbolic execution engine, following the Clang Static Analyzer design the
// paper describes in §VI-B: lvalue expressions map to memory regions via an
// environment, regions map to (symbolic) values via a store, and regions can
// be structured — an ElementRegion is a subregion of its array's region, a
// FieldRegion of its struct's region, and a SymRegion stands for the unknown
// block a symbolic pointer points to.
//
// A stored or computed value (SVal) is one of three cases: a scalar, which
// is the sym.Expr itself with no wrapper around it; a *Loc, the address of
// a region, which each region carries and hands out through Addr; or
// Undefined. Passing values around therefore allocates nothing.
package mem

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"privacyscope/internal/sym"
)

// Region is an abstract memory object. A Manager hash-conses derived and
// symbolic regions and mints each variable region once for the caller to
// keep, so two regions are the same object iff they denote the same memory.
type Region interface {
	// Key is a stable identifier that orders regions deterministically
	// (the region itself is the map key: regions are hash-consed). It is
	// built on its first call, when a sort first asks for it, and kept.
	Key() string
	// String renders the region in the paper's Table IV notation
	// (reg0, reg0[1], …).
	String() string
	// Super returns the parent region (nil for roots).
	Super() Region
	// Addr returns the region's address as a value: a *Loc that is part
	// of the region, so taking an address allocates nothing.
	Addr() SVal
	// slot is the region's dense per-manager index, its position in every
	// Store of the manager.
	slot() int
}

// node is the bookkeeping every region carries.
type node struct {
	at  int    // dense per-manager slot
	key string // built by the region's Key on its first call
	loc Loc    // the region's address
}

// cachedKey returns the region's key, building it on the first call.
func (n *node) cachedKey(build func() string) string {
	if n.key == "" {
		n.key = build()
	}
	return n.key
}

// Addr implements Region.
func (n *node) Addr() SVal { return &n.loc }

func (n *node) slot() int { return n.at }

// VarRegion is the region of one program variable: a global, or a param
// or local in one call frame.
type VarRegion struct {
	node
	id int
	// Name is the source name the region is shown as in findings and
	// input names; empty for a region shown as reg<N> (a param).
	Name string
}

// Key implements Region.
func (r *VarRegion) Key() string {
	return r.cachedKey(func() string { return "v" + strconv.Itoa(r.id) })
}

// String implements Region.
func (r *VarRegion) String() string { return "reg" + strconv.Itoa(r.id) }

// Super implements Region; variable regions are roots.
func (r *VarRegion) Super() Region { return nil }

// SymRegion represents the unknown memory block pointed to by a symbolic
// pointer (e.g. an [in] pointer parameter of an ECALL). Its Pointee symbol
// identifies the block; element reads produce fresh symbols per index.
type SymRegion struct {
	node
	id      int
	Pointee *sym.Symbol // identity of the unknown block
	// SecretSource is non-zero when the block holds secret input; element
	// reads then mint secret symbols.
	SecretSource bool
	DisplayName  string // e.g. "secrets" — used in Table IV style output
}

// Key implements Region.
func (r *SymRegion) Key() string {
	return r.cachedKey(func() string { return "sym" + strconv.Itoa(r.id) })
}

// String implements Region.
func (r *SymRegion) String() string { return "SymRegion{" + r.DisplayName + "}" }

// Super implements Region; symbolic regions are roots.
func (r *SymRegion) Super() Region { return nil }

// ElementRegion is the subregion for array element super[index].
type ElementRegion struct {
	node
	super Region
	Index int // concrete element index
}

// Key implements Region.
func (r *ElementRegion) Key() string {
	return r.cachedKey(func() string { return r.super.Key() + "[" + strconv.Itoa(r.Index) + "]" })
}

// String implements Region.
func (r *ElementRegion) String() string {
	return regionBase(r.super) + "[" + strconv.Itoa(r.Index) + "]"
}

// Super implements Region.
func (r *ElementRegion) Super() Region { return r.super }

// FieldRegion is the subregion for struct field super.Field.
type FieldRegion struct {
	node
	super Region
	Field string
}

// Key implements Region.
func (r *FieldRegion) Key() string {
	return r.cachedKey(func() string { return r.super.Key() + "." + r.Field })
}

// String implements Region.
func (r *FieldRegion) String() string { return regionBase(r.super) + "." + r.Field }

// Super implements Region.
func (r *FieldRegion) Super() Region { return r.super }

// regionBase renders the super-region part of a derived region's name in
// Table IV notation (the paper writes reg0[1] even when reg0 is symbolic).
func regionBase(r Region) string {
	switch v := r.(type) {
	case *VarRegion:
		return v.String()
	case *SymRegion:
		return "reg" + strconv.Itoa(v.id)
	default:
		return r.String()
	}
}

// Root walks Super links up to the root region.
func Root(r Region) Region {
	for r.Super() != nil {
		r = r.Super()
	}
	return r
}

// Manager owns the regions of one engine, mirroring the sym.Interner
// contract: one canonical region object per denotation, so region equality
// throughout the engine is pointer equality and regions serve directly as
// map keys (the engine's per-region tables key on them). Element, field and
// symbolic-block regions are hash-consed here. Variable regions are not:
// the engine resolves each variable to a frame slot or a global index
// before it runs, so it asks for a variable's region once and keeps it.
//
// Every region also gets a dense slot, in creation order, which is its
// index in the manager's stores (see Store). A manager belongs to one
// engine and is used from one goroutine; numeric region IDs and slots are
// dense and deterministic.
type Manager struct {
	// nextID counts the variable and symbolic-block regions minted; it
	// numbers their reg<N> names.
	nextID int
	// regions holds every region by slot.
	regions []Region
	symRgs  map[int]*SymRegion // keyed by pointee symbol ID
	elems   map[elemKey]*ElementRegion
	fields  map[fieldKey]*FieldRegion
}

// elemKey and fieldKey name a derived region by its super-region's slot.
type elemKey struct {
	super, index int
}

type fieldKey struct {
	super int
	field string
}

// NewManager returns an empty region manager.
func NewManager() *Manager {
	return &Manager{
		symRgs: make(map[int]*SymRegion),
		elems:  make(map[elemKey]*ElementRegion),
		fields: make(map[fieldKey]*FieldRegion),
	}
}

// Var mints a new region for a variable shown as name (empty: shown as
// reg<N>). Every call returns a distinct region: the caller keeps it for
// as long as the variable lives.
func (m *Manager) Var(name string) *VarRegion {
	r := &VarRegion{id: m.nextID, Name: name}
	m.add(r, &r.node)
	m.nextID++
	return r
}

// add gives the new region r, whose bookkeeping is n, the next slot and
// its address.
func (m *Manager) add(r Region, n *node) {
	n.at, n.loc.R = len(m.regions), r
	m.regions = append(m.regions, r)
}

// SymBlock returns the SymRegion for the block identified by pointee.
func (m *Manager) SymBlock(pointee *sym.Symbol, display string, secret bool) *SymRegion {
	k := pointee.ID
	if r, ok := m.symRgs[k]; ok {
		return r
	}
	r := &SymRegion{id: m.nextID, Pointee: pointee, DisplayName: display, SecretSource: secret}
	m.add(r, &r.node)
	m.nextID++
	m.symRgs[k] = r
	return r
}

// Element returns the ElementRegion super[index].
func (m *Manager) Element(super Region, index int) *ElementRegion {
	k := elemKey{super.slot(), index}
	if r, ok := m.elems[k]; ok {
		return r
	}
	r := &ElementRegion{super: super, Index: index}
	m.add(r, &r.node)
	m.elems[k] = r
	return r
}

// Field returns the FieldRegion super.field.
func (m *Manager) Field(super Region, field string) *FieldRegion {
	k := fieldKey{super.slot(), field}
	if r, ok := m.fields[k]; ok {
		return r
	}
	r := &FieldRegion{super: super, Field: field}
	m.add(r, &r.node)
	m.fields[k] = r
	return r
}

// RegionCount returns how many distinct regions have been created, a metric
// the Table IV bench reports.
func (m *Manager) RegionCount() int {
	return len(m.regions)
}

// SVal is a symbolic value stored in the store or produced by expression
// evaluation. It is a scalar — a sym.Expr, which satisfies SVal as it is —
// a location (*Loc, a region's address, obtained from Region.Addr), or
// Undefined.
type SVal interface {
	String() string
}

// Loc is the address of a region (a pointer value). Only *Loc is an SVal:
// the one its region hands out (Region.Addr).
type Loc struct {
	R Region
}

// String implements SVal.
func (l *Loc) String() string { return "&" + l.R.String() }

// Undefined is the value of uninitialized memory.
type Undefined struct{}

// String implements SVal.
func (Undefined) String() string { return "undef" }

// Store maps regions to SVals (σ in the paper's state 4-tuple). It is an
// array indexed by region slot, cut into chunks of chunkSize slots, and it
// only holds regions of the Manager that made it.
//
// A store is persistent copy-on-write: Clone copies the chunk pointers, so
// a fork costs one pointer per chunk however many bindings there are, and
// the forked stores share every chunk until one of them writes to it. Who
// may write a chunk in place is decided by an ownership token: a chunk
// carries the token of the store that made it, Clone takes the token away
// from the store it clones (the clone starts with none), and a store
// writes in place only into chunks that carry its current token. Any other
// chunk is copied first, under a token the store mints on its first write.
// A store belongs to one exploration state at a time, so it needs no lock.
type Store struct {
	mgr    *Manager
	chunks []*chunk
	own    *owner // nil until the store writes
}

// chunkShift sizes the chunks: the first write to a shared chunk copies
// all of its chunkSize values, so chunks are kept small.
const (
	chunkShift = 3
	chunkSize  = 1 << chunkShift
)

// chunk holds the values of chunkSize consecutive slots; nil is unbound.
type chunk struct {
	own  *owner
	vals [chunkSize]SVal
}

// owner is a store's write token. It has a size, so every token is a
// distinct allocation.
type owner struct{ _ byte }

// Binding is one region → value pair of a store.
type Binding struct {
	Region Region
	Val    SVal
}

// NewStore returns an empty store for m's regions.
func (m *Manager) NewStore() *Store {
	return &Store{mgr: m}
}

// Bind records region → val.
func (s *Store) Bind(r Region, v SVal) {
	i := r.slot()
	c := i >> chunkShift
	if n := len(s.chunks); c >= n {
		s.chunks = slices.Grow(s.chunks, c+1-n)[:c+1]
		clear(s.chunks[n:])
	}
	if s.own == nil {
		s.own = new(owner)
	}
	ch := s.chunks[c]
	if ch == nil || ch.own != s.own {
		fresh := &chunk{own: s.own}
		if ch != nil {
			fresh.vals = ch.vals
		}
		s.chunks[c] = fresh
		ch = fresh
	}
	ch.vals[i&(chunkSize-1)] = v
}

// Lookup returns the value bound to r, or (nil, false).
func (s *Store) Lookup(r Region) (SVal, bool) {
	i := r.slot()
	if c := i >> chunkShift; c < len(s.chunks) && s.chunks[c] != nil {
		v := s.chunks[c].vals[i&(chunkSize-1)]
		return v, v != nil
	}
	return nil, false
}

// Len returns the number of bindings.
func (s *Store) Len() int {
	n := 0
	for _, ch := range s.chunks {
		if ch != nil {
			for _, v := range ch.vals {
				if v != nil {
					n++
				}
			}
		}
	}
	return n
}

// Clone returns an independent copy for state forking: both stores share
// every chunk, and neither writes one in place again (see Store).
func (s *Store) Clone() *Store {
	s.own = nil
	return &Store{mgr: s.mgr, chunks: slices.Clone(s.chunks)}
}

// collect returns the bindings whose region passes keep, sorted by region
// key.
func (s *Store) collect(keep func(Region) bool) []Binding {
	var out []Binding
	for c, ch := range s.chunks {
		if ch == nil {
			continue
		}
		for j, v := range ch.vals {
			if v == nil {
				continue
			}
			if r := s.mgr.regions[c<<chunkShift|j]; keep(r) {
				out = append(out, Binding{r, v})
			}
		}
	}
	slices.SortFunc(out, func(a, b Binding) int { return strings.Compare(a.Region.Key(), b.Region.Key()) })
	return out
}

// Bindings returns all (region, value) pairs sorted by region key, for
// deterministic rendering of Table IV rows.
func (s *Store) Bindings() []Binding {
	return s.collect(func(Region) bool { return true })
}

// BindingsUnder returns the bindings strictly below the roots that keep
// accepts (regions whose Root passes, other than the root itself), sorted
// by region key. Only those bindings are materialized and sorted.
func (s *Store) BindingsUnder(keep func(root Region) bool) []Binding {
	return s.collect(func(r Region) bool { return r.Super() != nil && keep(Root(r)) })
}

// SubRegionsOf returns the bound regions whose root is the given root,
// used to smear taint over a region when a symbolic index is written.
func (s *Store) SubRegionsOf(root Region) []Region {
	bs := s.BindingsUnder(func(r Region) bool { return r == root })
	out := make([]Region, len(bs))
	for i, b := range bs {
		out[i] = b.Region
	}
	return out
}

// Env is the environment mapping lvalue expressions (by display text) to
// regions, as in the paper's state 4-tuple. It exists for rendering Table IV
// and for debugging; the engine itself resolves lvalues structurally.
type Env struct {
	m map[string]Region
}

// NewEnv returns an empty environment.
func NewEnv() *Env {
	return &Env{m: make(map[string]Region)}
}

// Bind records lvalue text → region.
func (e *Env) Bind(lvalue string, r Region) {
	e.m[lvalue] = r
}

// Lookup returns the region for an lvalue.
func (e *Env) Lookup(lvalue string) (Region, bool) {
	r, ok := e.m[lvalue]
	return r, ok
}

// Len returns the number of bindings.
func (e *Env) Len() int {
	return len(e.m)
}

// Clone returns an independent copy.
func (e *Env) Clone() *Env {
	c := &Env{m: make(map[string]Region, len(e.m))}
	for k, v := range e.m {
		c.m[k] = v
	}
	return c
}

// Bindings returns (lvalue, region) pairs sorted by lvalue.
func (e *Env) Bindings() []struct {
	LValue string
	Region Region
} {
	keys := make([]string, 0, len(e.m))
	for k := range e.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]struct {
		LValue string
		Region Region
	}, 0, len(keys))
	for _, k := range keys {
		out = append(out, struct {
			LValue string
			Region Region
		}{k, e.m[k]})
	}
	return out
}

// String renders a compact description.
func (e *Env) String() string {
	return fmt.Sprintf("env(%d lvalues)", len(e.m))
}
