// Package mem implements the region-based memory model used by the MiniC
// symbolic execution engine, following the Clang Static Analyzer design the
// paper describes in §VI-B: lvalue expressions map to memory regions via an
// environment, regions map to (symbolic) values via a store, and regions can
// be structured — an ElementRegion is a subregion of its array's region, a
// FieldRegion of its struct's region, and a SymRegion stands for the unknown
// block a symbolic pointer points to.
package mem

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"privacyscope/internal/sym"
)

// Region is an abstract memory object. Regions are hash-consed by a Manager,
// so two regions are the same object iff they denote the same memory.
type Region interface {
	// Key is a stable identifier that orders regions deterministically
	// (the region itself is the map key: regions are hash-consed). It is
	// built once, when the Manager creates the region.
	Key() string
	// String renders the region in the paper's Table IV notation
	// (reg0, reg0[1], …).
	String() string
	// Super returns the parent region (nil for roots).
	Super() Region
}

// VarRegion is the region of a named program variable in some frame.
type VarRegion struct {
	id    int
	key   string
	Name  string
	Frame int // call-frame depth, distinguishing recursive locals
}

// Key implements Region.
func (r *VarRegion) Key() string { return r.key }

// String implements Region.
func (r *VarRegion) String() string { return "reg" + strconv.Itoa(r.id) }

// Super implements Region; variable regions are roots.
func (r *VarRegion) Super() Region { return nil }

// SymRegion represents the unknown memory block pointed to by a symbolic
// pointer (e.g. an [in] pointer parameter of an ECALL). Its Pointee symbol
// identifies the block; element reads produce fresh symbols per index.
type SymRegion struct {
	id      int
	key     string
	Pointee *sym.Symbol // identity of the unknown block
	// SecretSource is non-zero when the block holds secret input; element
	// reads then mint secret symbols.
	SecretSource bool
	DisplayName  string // e.g. "secrets" — used in Table IV style output
}

// Key implements Region.
func (r *SymRegion) Key() string { return r.key }

// String implements Region.
func (r *SymRegion) String() string { return "SymRegion{" + r.DisplayName + "}" }

// Super implements Region; symbolic regions are roots.
func (r *SymRegion) Super() Region { return nil }

// ElementRegion is the subregion for array element super[index].
type ElementRegion struct {
	super Region
	key   string
	Index int // concrete element index
}

// Key implements Region.
func (r *ElementRegion) Key() string { return r.key }

// String implements Region.
func (r *ElementRegion) String() string {
	return regionBase(r.super) + "[" + strconv.Itoa(r.Index) + "]"
}

// Super implements Region.
func (r *ElementRegion) Super() Region { return r.super }

// FieldRegion is the subregion for struct field super.Field.
type FieldRegion struct {
	super Region
	key   string
	Field string
}

// Key implements Region.
func (r *FieldRegion) Key() string { return r.key }

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

// Manager hash-conses regions, mirroring the sym.Interner contract: one
// canonical region object per denotation, so region equality throughout the
// engine is pointer equality and regions serve directly as map keys (the
// Store and the engine's per-region tables key on them). It is safe for
// concurrent use: parallel path workers exploring one entry point share a
// single manager. Reads are lock-free (sync.Map, shared read-mostly across
// path workers); creation takes a short mutex so numeric region IDs stay
// dense and deterministic under sequential exploration.
type Manager struct {
	mu     sync.Mutex // guards nextID and the create path
	nextID int
	count  atomic.Int64
	vars   sync.Map // varKey → *VarRegion
	symRgs sync.Map // pointee symbol ID → *SymRegion
	elems  sync.Map // elemKey → *ElementRegion
	fields sync.Map // fieldKey → *FieldRegion
}

type varKey struct {
	name  string
	frame int
}

type elemKey struct {
	super Region
	index int
}

type fieldKey struct {
	super Region
	field string
}

// NewManager returns an empty region manager.
func NewManager() *Manager {
	return &Manager{}
}

// Var returns the region of variable name in the given frame.
func (m *Manager) Var(name string, frame int) *VarRegion {
	k := varKey{name, frame}
	if r, ok := m.vars.Load(k); ok {
		return r.(*VarRegion)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.vars.Load(k); ok {
		return r.(*VarRegion)
	}
	r := &VarRegion{id: m.nextID, key: "v" + strconv.Itoa(m.nextID), Name: name, Frame: frame}
	m.nextID++
	m.vars.Store(k, r)
	m.count.Add(1)
	return r
}

// SymBlock returns the SymRegion for the block identified by pointee.
func (m *Manager) SymBlock(pointee *sym.Symbol, display string, secret bool) *SymRegion {
	k := pointee.ID
	if r, ok := m.symRgs.Load(k); ok {
		return r.(*SymRegion)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.symRgs.Load(k); ok {
		return r.(*SymRegion)
	}
	r := &SymRegion{id: m.nextID, key: "sym" + strconv.Itoa(m.nextID), Pointee: pointee, DisplayName: display, SecretSource: secret}
	m.nextID++
	m.symRgs.Store(k, r)
	m.count.Add(1)
	return r
}

// Element returns the ElementRegion super[index].
func (m *Manager) Element(super Region, index int) *ElementRegion {
	k := elemKey{super, index}
	if r, ok := m.elems.Load(k); ok {
		return r.(*ElementRegion)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.elems.Load(k); ok {
		return r.(*ElementRegion)
	}
	r := &ElementRegion{super: super, key: super.Key() + "[" + strconv.Itoa(index) + "]", Index: index}
	m.elems.Store(k, r)
	m.count.Add(1)
	return r
}

// Field returns the FieldRegion super.field.
func (m *Manager) Field(super Region, field string) *FieldRegion {
	k := fieldKey{super, field}
	if r, ok := m.fields.Load(k); ok {
		return r.(*FieldRegion)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.fields.Load(k); ok {
		return r.(*FieldRegion)
	}
	r := &FieldRegion{super: super, key: super.Key() + "." + field, Field: field}
	m.fields.Store(k, r)
	m.count.Add(1)
	return r
}

// RegionCount returns how many distinct regions have been created, a metric
// the Table IV bench reports.
func (m *Manager) RegionCount() int {
	return int(m.count.Load())
}

// SVal is a symbolic value stored in the store or produced by expression
// evaluation: a scalar symbolic expression, a location (region address), or
// undefined.
type SVal interface {
	isSVal()
	String() string
}

// Scalar wraps a symbolic scalar expression.
type Scalar struct {
	E sym.Expr
}

func (Scalar) isSVal() {}

// String implements SVal.
func (s Scalar) String() string { return s.E.String() }

// Loc is the address of a region (a pointer value).
type Loc struct {
	R Region
}

func (Loc) isSVal() {}

// String implements SVal.
func (l Loc) String() string { return "&" + l.R.String() }

// Undefined is the value of uninitialized memory.
type Undefined struct{}

func (Undefined) isSVal() {}

// String implements SVal.
func (Undefined) String() string { return "undef" }

// Store maps regions to SVals (σ in the paper's state 4-tuple). It is a
// persistent copy-on-write structure: Clone is O(1) in the number of
// bindings, making state forks cheap enough for parallel path exploration.
// Bindings are keyed by region identity (regions are hash-consed by the
// Manager), so lookups never build a key string.
//
// Internally a store is a chain of frozen layers (oldest first, shared
// between forked states, never mutated again) plus one private mutable top
// layer. Lookups scan top-down; deletions shadow older layers with a
// tombstone (a nil value). A single store value is still owned by exactly
// one exploration state at a time — only the *frozen* layers are shared —
// so per-store operations need no lock.
type Store struct {
	frozen []map[Region]SVal // immutable layers, oldest first
	top    map[Region]SVal   // private mutable layer
	count  int               // live bindings visible through all layers
}

// Binding is one region → value pair of a store.
type Binding struct {
	Region Region
	Val    SVal
}

// flattenDepth is the frozen-chain length past which Clone collapses the
// layers into one map, bounding lookup cost on deeply forked paths.
const flattenDepth = 32

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{top: make(map[Region]SVal)}
}

// lookupEntry finds the visible value for r, newest layer first; a nil
// value with ok set is a tombstone.
func (s *Store) lookupEntry(r Region) (SVal, bool) {
	if v, ok := s.top[r]; ok {
		return v, true
	}
	for i := len(s.frozen) - 1; i >= 0; i-- {
		if v, ok := s.frozen[i][r]; ok {
			return v, true
		}
	}
	return nil, false
}

// Bind records region → val.
func (s *Store) Bind(r Region, v SVal) {
	if old, _ := s.lookupEntry(r); old == nil {
		s.count++
	}
	s.top[r] = v
}

// Lookup returns the value bound to r, or (nil, false).
func (s *Store) Lookup(r Region) (SVal, bool) {
	v, _ := s.lookupEntry(r)
	return v, v != nil
}

// Remove deletes any binding for r.
func (s *Store) Remove(r Region) {
	if v, _ := s.lookupEntry(r); v == nil {
		return
	}
	s.count--
	delete(s.top, r)
	// A frozen layer may still hold the binding; shadow it.
	for i := len(s.frozen) - 1; i >= 0; i-- {
		if fv, ok := s.frozen[i][r]; ok {
			if fv != nil {
				s.top[r] = nil
			}
			return
		}
	}
}

// Len returns the number of bindings.
func (s *Store) Len() int { return s.count }

// Clone returns an independent copy for state forking. The receiver's top
// layer is frozen (both stores keep reading it; neither writes it again)
// and each store gets a fresh private top, so cloning costs O(layers)
// rather than O(bindings).
func (s *Store) Clone() *Store {
	if len(s.frozen) >= flattenDepth {
		s.flatten()
	}
	if len(s.top) > 0 {
		chain := make([]map[Region]SVal, len(s.frozen), len(s.frozen)+1)
		copy(chain, s.frozen)
		s.frozen = append(chain, s.top)
		s.top = make(map[Region]SVal)
	}
	c := &Store{
		frozen: make([]map[Region]SVal, len(s.frozen)),
		top:    make(map[Region]SVal),
		count:  s.count,
	}
	copy(c.frozen, s.frozen)
	return c
}

// flatten merges the frozen chain into a single layer, applying tombstones.
func (s *Store) flatten() {
	merged := make(map[Region]SVal)
	for _, layer := range s.frozen {
		for r, v := range layer {
			if v == nil {
				delete(merged, r)
			} else {
				merged[r] = v
			}
		}
	}
	s.frozen = []map[Region]SVal{merged}
}

// collect returns the visible bindings whose region passes keep, sorted
// by region key. Layers are visited newest first and a region's first
// occurrence shadows the rest, so only the kept regions are tracked.
func (s *Store) collect(keep func(Region) bool) []Binding {
	var out []Binding
	seen := make(map[Region]bool)
	visit := func(layer map[Region]SVal) {
		for r, v := range layer {
			if seen[r] || !keep(r) {
				continue
			}
			seen[r] = true
			if v != nil {
				out = append(out, Binding{r, v})
			}
		}
	}
	visit(s.top)
	for i := len(s.frozen) - 1; i >= 0; i-- {
		visit(s.frozen[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Region.Key() < out[j].Region.Key() })
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
// and for debugging; the engine itself resolves lvalues structurally. One
// Env is shared across all path workers of an entry point, so it is
// internally locked.
type Env struct {
	mu sync.Mutex
	m  map[string]Region
}

// NewEnv returns an empty environment.
func NewEnv() *Env {
	return &Env{m: make(map[string]Region)}
}

// Bind records lvalue text → region.
func (e *Env) Bind(lvalue string, r Region) {
	e.mu.Lock()
	e.m[lvalue] = r
	e.mu.Unlock()
}

// Lookup returns the region for an lvalue.
func (e *Env) Lookup(lvalue string) (Region, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.m[lvalue]
	return r, ok
}

// Len returns the number of bindings.
func (e *Env) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.m)
}

// Clone returns an independent copy.
func (e *Env) Clone() *Env {
	e.mu.Lock()
	defer e.mu.Unlock()
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
	e.mu.Lock()
	defer e.mu.Unlock()
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
	e.mu.Lock()
	defer e.mu.Unlock()
	return fmt.Sprintf("env(%d lvalues)", len(e.m))
}
