package sym

import (
	"math"
	"reflect"
	"strconv"

	"privacyscope/internal/taint"
)

// Interner is a hash-consing arena for expression nodes: structurally equal
// composites interned through the same arena are the same pointer, so
// equality on canonical nodes is a pointer comparison and downstream caches
// (the solver's feasibility memo and per-atom analysis) can key on identity
// instead of re-walking DAGs.
//
// An arena belongs to one engine and is used from one goroutine. Leaves
// need no table — IntConst and FloatConst are comparable values, *Symbol is
// already canonical per Builder. For the same reason an arena must only see
// expressions built over a single Builder's symbols (two Builders reuse
// IDs, which would break the "distinct canonical nodes are structurally
// unequal" invariant); the engine owns exactly one of each, which satisfies
// this.
//
// Each node the arena mints carries its taint label and entropy bit,
// computed once from its children's (Table I's join), so TaintOf,
// SecretTags and HasEntropy on a canonical node read a field instead of
// walking the DAG. A label's tag list lives in the arena's tables, which
// grow as the arena mints: read an arena's labels on the goroutine that
// uses it, or after it stops minting.
//
// NaN constants are deliberately never canonicalized: sym.Equal treats
// NaN != NaN (matching C semantics), and a NaN inside a map key can never
// be looked up again, so composites with a direct NaN child are returned
// as fresh un-tagged nodes. That keeps the intern invariant exact — two
// NaN-bearing composites are distinct pointers AND structurally unequal.
// ±0.0 float children, conversely, intern to one node: Go map keys and
// sym.Equal both consider +0.0 == -0.0.
type Interner struct {
	bins  map[binKey]*Binary
	uns   map[unKey]*Unary
	calls map[string]*Call
	// symIDs assigns arena-local dense IDs to symbols for call-key tokens,
	// so call keys never depend on Builder ID uniqueness across arenas.
	symIDs map[*Symbol]uint64

	// tagSets holds the secret tags of the arena's ⊤ nodes, each list
	// sorted ascending with len == cap; a node whose join adds no tag to
	// a child's list shares the child's entry. singles backs the one-tag
	// lists SecretTags hands out: singles[t] == t.
	tagSets [][]taint.Tag
	singles []taint.Tag
	// tagBuf is the scratch list join merges into.
	tagBuf []taint.Tag

	// misses counts fresh inserts; the arena never evicts, so it is also
	// the table size and the last node ID handed out.
	hits, misses int64
}

// binKey and unKey are comparable: children are canonical, so interface
// equality (value equality for consts, pointer equality for composites and
// symbols) is exactly structural equality.
type binKey struct {
	op   Op
	l, r Expr
}

type unKey struct {
	op Op
	x  Expr
}

// internTag is carried (unexported) by composite nodes: the owning arena,
// a per-arena dense ID used for cheap canonical cache keys, and the node's
// taint label, computed once when the arena mints the node.
type internTag struct {
	arena *Interner
	id    uint64
	lab   label
}

// label is a canonical node's taint label and entropy bit: the join of
// its children's labels, which is Table I's propagation policy. It packs
// into 8 bytes, so Binary, Unary and Call stay in their 64-, 48- and
// 64-byte size classes.
type label struct {
	// tags is the tag of a labSingle node and the arena.tagSets index of
	// a labTop node's tags.
	tags    uint32
	kind    labelKind
	entropy bool // an in-enclave randomness symbol occurs in the node
}

type labelKind uint8

const (
	labBottom labelKind = iota // no secret
	labSingle                  // exactly one secret tag
	labTop                     // several tags, listed in arena.tagSets
	labWide                    // more than maxStoredTags tags, not listed
)

// maxStoredTags bounds a listed tag set. A chain that adds one secret per
// node (a sum over every element of a secret buffer) would otherwise store
// quadratically many tags; past the bound the node is ⊤ without a list,
// and SecretTags walks it as it does a node outside an arena.
const maxStoredTags = 64

// NewInterner returns an empty arena.
func NewInterner() *Interner {
	return &Interner{
		bins:   make(map[binKey]*Binary),
		uns:    make(map[unKey]*Unary),
		calls:  make(map[string]*Call),
		symIDs: make(map[*Symbol]uint64),
	}
}

// Stats returns the cumulative table hits, misses (fresh inserts), and the
// current table size (distinct canonical composites).
func (in *Interner) Stats() (hits, misses, size int64) {
	if in == nil {
		return 0, 0, 0
	}
	return in.hits, in.misses, in.misses
}

// Intern returns the canonical representative of e in this arena,
// rebuilding bottom-up. Already-canonical nodes return themselves in O(1).
// A nil receiver is the identity, so call sites need no interning branch.
func (in *Interner) Intern(e Expr) Expr {
	if in == nil || e == nil {
		return e
	}
	switch v := e.(type) {
	case IntConst, FloatConst, *Symbol:
		return e
	case *Binary:
		if v.tag.arena == in {
			return e
		}
		l, r := in.Intern(v.L), in.Intern(v.R)
		if n, ok := in.binary(v.Op, l, r); ok {
			return n
		}
		// Un-internable (direct NaN child): Intern is the identity. Any
		// rebuild would be intern-equivalent to v yet not Equal to it
		// (NaN != NaN), breaking the iff property — a NaN-bearing node is
		// canonical only of itself.
		return v
	case *Unary:
		if v.tag.arena == in {
			return e
		}
		x := in.Intern(v.X)
		if n, ok := in.unary(v.Op, x); ok {
			return n
		}
		return v
	case *Call:
		if v.tag.arena == in {
			return e
		}
		args := make([]Expr, len(v.Args))
		for i, a := range v.Args {
			args[i] = in.Intern(a)
		}
		if n, ok := in.call(v.Name, args); ok {
			return n
		}
		return v
	}
	return e
}

// NewBinary folds like sym.NewBinary, then interns the result. Folding
// semantics are unchanged — the fold runs first on the interned operands,
// and only the constructed node is canonicalized.
func (in *Interner) NewBinary(op Op, l, r Expr) Expr {
	if in == nil {
		return NewBinary(op, l, r)
	}
	// Interning the operands first lets the fold's Equal calls (x-x, x==x,
	// …) take the pointer fast path, and makes the folded node internable
	// by table lookup instead of a recursive walk.
	return in.Intern(NewBinary(op, in.Intern(l), in.Intern(r)))
}

// NewUnary folds like sym.NewUnary, then interns the result.
func (in *Interner) NewUnary(op Op, x Expr) Expr {
	if in == nil {
		return NewUnary(op, x)
	}
	return in.Intern(NewUnary(op, in.Intern(x)))
}

// NewCall folds like sym.NewCall, then interns the result.
func (in *Interner) NewCall(name string, args []Expr) Expr {
	if in == nil {
		return NewCall(name, args)
	}
	for i, a := range args {
		args[i] = in.Intern(a)
	}
	return in.Intern(NewCall(name, args))
}

// Truth is sym.Truth followed by interning.
func (in *Interner) Truth(e Expr) Expr {
	if in == nil {
		return Truth(e)
	}
	return in.Intern(Truth(in.Intern(e)))
}

// Negate is sym.Negate followed by interning.
func (in *Interner) Negate(e Expr) Expr {
	if in == nil {
		return Negate(e)
	}
	return in.Intern(Negate(in.Intern(e)))
}

// nanConst reports a direct NaN float constant — the one leaf whose map-key
// round trip is broken (NaN != NaN), so composites with such a child skip
// the tables: each build is a fresh node, which matches Equal (NaN != NaN
// makes them structurally unequal anyway). Composite children are always
// keyed — interned ones by canonical pointer, and the only composites left
// un-interned after a child Intern pass are themselves NaN-bearers, whose
// pointer identity IS their structural identity (two distinct NaN-bearing
// nodes are never Equal), so interface equality on the key stays exactly
// structural equality.
func nanConst(e Expr) bool {
	c, ok := e.(FloatConst)
	return ok && math.IsNaN(c.V)
}

func (in *Interner) binary(op Op, l, r Expr) (Expr, bool) {
	if nanConst(l) || nanConst(r) {
		return nil, false
	}
	k := binKey{op: op, l: l, r: r}
	if got, ok := in.bins[k]; ok {
		in.hits++
		return got, true
	}
	n := &Binary{Op: op, L: l, R: r, tag: in.newTag(in.join(in.labelOf(l), in.labelOf(r)))}
	in.bins[k] = n
	return n, true
}

func (in *Interner) unary(op Op, x Expr) (Expr, bool) {
	if nanConst(x) {
		return nil, false
	}
	k := unKey{op: op, x: x}
	if got, ok := in.uns[k]; ok {
		in.hits++
		return got, true
	}
	n := &Unary{Op: op, X: x, tag: in.newTag(in.labelOf(x))}
	in.uns[k] = n
	return n, true
}

// call interns a Call through a string key (Args is a slice, so no
// comparable struct key exists). Tokens uniquely name children — canonical
// composites by arena ID, NaN-bearing (un-interned) composites by address
// (pinned alive by the table entry itself, so the address cannot be
// recycled into a false alias) — making key equality exactly structural
// equality. Only a direct NaN leaf argument defeats interning.
func (in *Interner) call(name string, args []Expr) (Expr, bool) {
	// Length-prefix the name so a '|' inside it cannot alias an argument
	// boundary.
	var sb []byte
	sb = append(sb, strconv.Itoa(len(name))...)
	sb = append(sb, ':')
	sb = append(sb, name...)
	for _, a := range args {
		tok, ok := in.childToken(a)
		if !ok {
			return nil, false
		}
		sb = append(sb, '|')
		sb = append(sb, tok...)
	}
	k := string(sb)
	if got, ok := in.calls[k]; ok {
		in.hits++
		return got, true
	}
	var lab label
	for _, a := range args {
		lab = in.join(lab, in.labelOf(a))
	}
	n := &Call{Name: name, Args: args, tag: in.newTag(lab)}
	in.calls[k] = n
	return n, true
}

// newTag counts a fresh insert and returns its tag.
func (in *Interner) newTag(lab label) internTag {
	in.misses++
	return internTag{arena: in, id: uint64(in.misses), lab: lab}
}

// labelOf returns the label of a child of a node the arena is minting.
func (in *Interner) labelOf(e Expr) label {
	switch v := e.(type) {
	case IntConst, FloatConst:
		return label{}
	case *Symbol:
		lab := label{entropy: v.Entropy}
		if v.Secret() {
			lab.tags, lab.kind = in.single(v.Tag), labSingle
		}
		return lab
	}
	if t := tagOf(e); t != nil && t.arena == in {
		return t.lab
	}
	// A composite the arena did not mint (NaN-bearing): walk it once.
	tags := walkTags(e)
	lab := label{entropy: walkEntropy(e)}
	switch {
	case len(tags) == 1:
		lab.tags, lab.kind = in.single(tags[0]), labSingle
	case len(tags) > maxStoredTags:
		lab.kind = labWide
	case len(tags) > 1:
		lab.kind, lab.tags = labTop, uint32(len(in.tagSets))
		in.tagSets = append(in.tagSets, tags[:len(tags):len(tags)])
	}
	return lab
}

// single returns a labSingle node's tags field for tag t, making room for
// t in singles.
func (in *Interner) single(t taint.Tag) uint32 {
	for len(in.singles) <= int(t) {
		in.singles = append(in.singles, taint.Tag(len(in.singles)))
	}
	return uint32(t)
}

// join is Table I: ⊥ is the identity, equal single tags stay single, and
// anything else is ⊤ over the union of the tags. A union that adds no tag
// to one side's list shares that list.
func (in *Interner) join(a, b label) label {
	entropy := a.entropy || b.entropy
	switch {
	case b.kind == labBottom:
	case a.kind == labBottom:
		a = b
	case a.kind == labWide || b.kind == labWide:
		a = label{kind: labWide}
	case a.kind == labSingle && b.kind == labSingle && a.tags == b.tags:
	default:
		x, y := in.tagsOf(a), in.tagsOf(b)
		u := mergeTags(in.tagBuf[:0], x, y)
		in.tagBuf = u
		switch {
		case len(u) == len(x):
		case len(u) == len(y):
			a = b
		case len(u) > maxStoredTags:
			a = label{kind: labWide}
		default:
			a = label{tags: uint32(len(in.tagSets)), kind: labTop}
			in.tagSets = append(in.tagSets, append(make([]taint.Tag, 0, len(u)), u...))
		}
	}
	a.entropy = entropy
	return a
}

// tagsOf lists the tags of a label of this arena other than labWide. The
// list is shared: its capacity equals its length, so a caller's append
// copies it.
func (in *Interner) tagsOf(l label) []taint.Tag {
	switch l.kind {
	case labSingle:
		return in.singles[l.tags : l.tags+1 : l.tags+1]
	case labTop:
		return in.tagSets[l.tags]
	}
	return nil
}

// mergeTags appends the union of the ascending lists x and y to dst.
func mergeTags(dst, x, y []taint.Tag) []taint.Tag {
	for len(x) > 0 && len(y) > 0 {
		switch {
		case x[0] < y[0]:
			dst, x = append(dst, x[0]), x[1:]
		case y[0] < x[0]:
			dst, y = append(dst, y[0]), y[1:]
		default:
			dst, x, y = append(dst, x[0]), x[1:], y[1:]
		}
	}
	dst = append(dst, x...)
	return append(dst, y...)
}

func (in *Interner) childToken(e Expr) (string, bool) {
	switch v := e.(type) {
	case IntConst:
		return "i" + strconv.FormatInt(int64(v.V), 10), true
	case FloatConst:
		if math.IsNaN(v.V) {
			return "", false
		}
		if v.V == 0 { // merge ±0 like the map keys (and sym.Equal) do
			return "f0", true
		}
		return "f" + strconv.FormatUint(math.Float64bits(v.V), 16), true
	case *Symbol:
		id, ok := in.symIDs[v]
		if !ok {
			id = uint64(len(in.symIDs)) + 1
			in.symIDs[v] = id
		}
		return "$" + strconv.FormatUint(id, 10), true
	case *Binary, *Unary, *Call:
		if t := tagOf(e); t != nil && t.arena == in {
			return "#" + strconv.FormatUint(t.id, 36), true
		}
		return "p" + strconv.FormatUint(uint64(reflect.ValueOf(e).Pointer()), 16), true
	}
	return "", false
}

// tagOf returns the intern tag of a composite an arena minted, or nil.
func tagOf(e Expr) *internTag {
	var t *internTag
	switch v := e.(type) {
	case *Binary:
		t = &v.tag
	case *Unary:
		t = &v.tag
	case *Call:
		t = &v.tag
	}
	if t == nil || t.arena == nil {
		return nil
	}
	return t
}

// arenaOf returns the arena a composite node is canonical in, or nil.
func arenaOf(e Expr) *Interner {
	if t := tagOf(e); t != nil {
		return t.arena
	}
	return nil
}

// Interned reports whether e is safe to use as an identity cache key: a
// canonical composite of some arena. (Leaves are excluded on purpose —
// callers key caches on composite identity.)
func Interned(e Expr) bool { return arenaOf(e) != nil }

// InternID returns the arena-local dense ID of a canonical composite and
// the arena it is canonical in; the arena is nil for anything else. IDs
// are unique within one arena, so per-engine tables (the implicit
// detector's sorted conjunct sets) can key on them instead of on
// structural keys.
func InternID(e Expr) (uint64, *Interner) {
	if t := tagOf(e); t != nil {
		return t.id, t.arena
	}
	return 0, nil
}

// distinctInterned reports that a and b are distinct canonical composites
// of the same arena — by the interning invariant they are structurally
// unequal, so Equal can answer false without a walk. Callers have already
// ruled out a == b.
func distinctInterned(a, b Expr) bool {
	aa := arenaOf(a)
	if aa == nil {
		return false
	}
	return aa == arenaOf(b)
}
