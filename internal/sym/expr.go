// Package sym implements the symbolic value domain shared by the PRIML
// analyzer and the MiniC symbolic execution engine.
//
// A symbolic expression is a tree over 32-bit integer constants, floating
// point constants, and symbols. Symbols are created for program inputs; a
// symbol created for a secret input (the result of get_secret, an [in] EDL
// parameter, or the output of a recognized decryption function) carries a
// taint tag. The taint label of any expression is derived from its free
// secret symbols (see DESIGN.md, design decision 1), which makes the
// propagation tables of Fig. 2 hold by construction.
package sym

import (
	"fmt"
	"sort"
	"strconv"

	"privacyscope/internal/taint"
)

// Op enumerates the operators of symbolic expressions. The set mirrors the
// "typical binary and unary operators" of PRIML plus the C operators MiniC
// supports.
type Op int

// Binary and unary operators.
const (
	OpAdd Op = iota + 1
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd // bitwise &
	OpOr  // bitwise |
	OpXor
	OpShl
	OpShr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpLAnd // logical &&
	OpLOr  // logical ||

	OpNeg   // unary -
	OpNot   // unary ~ (bitwise complement)
	OpLNot  // unary !
	OpToInt // (int): a float converted to int, as ToInt32 does
)

var opStrings = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpRem: "%",
	OpAnd: "&", OpOr: "|", OpXor: "^", OpShl: "<<", OpShr: ">>",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpLAnd: "&&", OpLOr: "||",
	OpNeg: "-", OpNot: "~", OpLNot: "!", OpToInt: "(int)",
}

// String returns the C spelling of the operator.
func (o Op) String() string {
	if s, ok := opStrings[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsComparison reports whether the operator yields a boolean (0/1) result.
func (o Op) IsComparison() bool {
	switch o {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// IsLogical reports whether the operator is && or ||.
func (o Op) IsLogical() bool { return o == OpLAnd || o == OpLOr }

// Expr is a symbolic expression. Implementations are immutable; share
// freely.
type Expr interface {
	// String renders the expression in C-like syntax, with secret
	// symbols shown as s1, s2, … as in the paper's trace tables.
	String() string
	isExpr()
}

// IntConst is a concrete 32-bit integer value. PRIML's value domain is
// 32-bit integers; MiniC int/char values also land here.
type IntConst struct {
	V int32
}

func (IntConst) isExpr() {}

// String renders the literal in decimal.
func (c IntConst) String() string { return strconv.FormatInt(int64(c.V), 10) }

// FloatConst is a concrete floating point value (MiniC float/double).
type FloatConst struct {
	V float64
}

func (FloatConst) isExpr() {}

// String renders the literal in shortest decimal form.
func (c FloatConst) String() string {
	return strconv.FormatFloat(c.V, 'g', -1, 64)
}

// Symbol is a symbolic atom: an unknown program input. A secret symbol
// carries a non-zero taint tag.
// An entropy symbol stands for randomness generated inside the enclave
// (rand, sgx_read_rand): unknown to the attacker, but not a user secret —
// it masks secrets only probabilistically (§VIII-A).
type Symbol struct {
	ID      int       // unique per Builder
	Name    string    // display name, e.g. "s1" or "reg0[0]"
	Tag     taint.Tag // non-zero iff the symbol is a secret source
	Entropy bool      // true for in-enclave randomness
}

func (*Symbol) isExpr() {}

// String returns the display name of the symbol.
func (s *Symbol) String() string { return s.Name }

// Secret reports whether the symbol was introduced by a secret source.
func (s *Symbol) Secret() bool { return s.Tag != 0 }

// Binary is a binary operation over two symbolic expressions.
type Binary struct {
	Op   Op
	L, R Expr

	tag internTag // set only by an Interner; zero for structurally built nodes
}

func (*Binary) isExpr() {}

// String renders the operation in parenthesized C syntax.
func (b *Binary) String() string { return "(" + Render(b, 0) + ")" }

// Unary is a unary operation over a symbolic expression.
type Unary struct {
	Op Op
	X  Expr

	tag internTag // set only by an Interner; zero for structurally built nodes
}

func (*Unary) isExpr() {}

// String renders the operation in C syntax.
func (u *Unary) String() string { return Render(u, 0) }

// Builder allocates symbols with unique IDs and, for secrets, fresh taint
// tags. The zero value is not ready; use NewBuilder. A Builder belongs to
// one engine and is used from one goroutine.
type Builder struct {
	nextID int
	alloc  *taint.Allocator
	syms   map[int]*Symbol
}

// NewBuilder returns a Builder drawing taint tags from alloc.
func NewBuilder(alloc *taint.Allocator) *Builder {
	return &Builder{alloc: alloc, syms: make(map[int]*Symbol)}
}

// FreshSecret allocates a secret symbol with a fresh taint tag. If name is
// empty the symbol is named after its tag ("s1", "s2", …), matching the
// paper's notation.
func (b *Builder) FreshSecret(name string) *Symbol {
	tag := b.alloc.Fresh()
	if name == "" {
		name = "s" + strconv.Itoa(int(tag))
	}
	b.nextID++
	s := &Symbol{ID: b.nextID, Name: name, Tag: tag}
	b.syms[s.ID] = s
	return s
}

// FreshPublic allocates a non-secret (low input) symbol.
func (b *Builder) FreshPublic(name string) *Symbol {
	b.nextID++
	if name == "" {
		name = "v" + strconv.Itoa(b.nextID)
	}
	s := &Symbol{ID: b.nextID, Name: name}
	b.syms[s.ID] = s
	return s
}

// FreshEntropy allocates an in-enclave randomness symbol.
func (b *Builder) FreshEntropy(name string) *Symbol {
	s := b.FreshPublic(name)
	s.Entropy = true
	return s
}

// HasEntropy reports whether e contains any in-enclave randomness.
func HasEntropy(e Expr) bool {
	for _, s := range FreeSymbols(e) {
		if s.Entropy {
			return true
		}
	}
	return false
}

// Lookup returns the symbol with the given ID, or nil.
func (b *Builder) Lookup(id int) *Symbol {
	return b.syms[id]
}

// Symbols returns all allocated symbols ordered by ID.
func (b *Builder) Symbols() []*Symbol {
	out := make([]*Symbol, 0, len(b.syms))
	for _, s := range b.syms {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FreeSymbols returns the distinct symbols occurring in e, ordered by ID.
// Traversal is memoized on node identity: expressions built by the engine
// are DAGs with heavy subtree sharing (ML aggregates reuse the same mean
// and variance terms), and an unmemoized walk would be exponential in the
// sharing depth.
func FreeSymbols(e Expr) []*Symbol {
	seen := make(map[int]*Symbol)
	visited := make(map[Expr]bool)
	collectSymbols(e, seen, visited)
	out := make([]*Symbol, 0, len(seen))
	for _, s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func collectSymbols(e Expr, seen map[int]*Symbol, visited map[Expr]bool) {
	switch v := e.(type) {
	case *Symbol:
		seen[v.ID] = v
	case *Binary:
		if visited[v] {
			return
		}
		visited[v] = true
		collectSymbols(v.L, seen, visited)
		collectSymbols(v.R, seen, visited)
	case *Unary:
		if visited[v] {
			return
		}
		visited[v] = true
		collectSymbols(v.X, seen, visited)
	case *Call:
		if visited[v] {
			return
		}
		visited[v] = true
		for _, a := range v.Args {
			collectSymbols(a, seen, visited)
		}
	}
}

// SecretTags returns the distinct taint tags of the secret symbols in e.
func SecretTags(e Expr) []taint.Tag {
	var tags []taint.Tag
	seen := make(map[taint.Tag]bool)
	for _, s := range FreeSymbols(e) {
		if s.Secret() && !seen[s.Tag] {
			seen[s.Tag] = true
			tags = append(tags, s.Tag)
		}
	}
	return tags
}

// TaintOf derives the taint label of an expression from its free secret
// symbols: ⊥ for none, tᵢ for exactly one source, ⊤ for several. This is
// the representation-level statement of Fig. 2.
func TaintOf(e Expr) taint.Label {
	return taint.FromTags(SecretTags(e))
}

// Equal reports structural equality of two expressions. Identical node
// pointers short-circuit and compared pairs are memoized, so the walk stays
// polynomial on shared DAGs.
func Equal(a, b Expr) bool {
	// Fast paths before the memo map is allocated: identical values (or
	// pointers), and distinct canonical nodes of one intern arena — both
	// answer without a walk and without allocating.
	if a == b {
		return true
	}
	if distinctInterned(a, b) {
		return false
	}
	return equalMemo(a, b, make(map[[2]Expr]bool))
}

func equalMemo(a, b Expr, memo map[[2]Expr]bool) bool {
	if a == b {
		return true
	}
	if distinctInterned(a, b) {
		return false
	}
	var pair [2]Expr
	memoizable := false
	switch a.(type) {
	case *Binary, *Unary, *Call:
		switch b.(type) {
		case *Binary, *Unary, *Call:
			memoizable = true
			pair = [2]Expr{a, b}
			if v, ok := memo[pair]; ok {
				return v
			}
			// Optimistically assume equal while comparing, which is
			// safe for acyclic DAGs and prevents re-walking the pair.
			memo[pair] = true
		}
	}
	eq := equalNode(a, b, memo)
	if memoizable {
		memo[pair] = eq
	}
	return eq
}

func equalNode(a, b Expr, memo map[[2]Expr]bool) bool {
	switch x := a.(type) {
	case IntConst:
		y, ok := b.(IntConst)
		return ok && x.V == y.V
	case FloatConst:
		y, ok := b.(FloatConst)
		return ok && x.V == y.V
	case *Symbol:
		y, ok := b.(*Symbol)
		return ok && x.ID == y.ID
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && equalMemo(x.L, y.L, memo) && equalMemo(x.R, y.R, memo)
	case *Unary:
		y, ok := b.(*Unary)
		return ok && x.Op == y.Op && equalMemo(x.X, y.X, memo)
	case *Call:
		y, ok := b.(*Call)
		if !ok || x.Name != y.Name || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !equalMemo(x.Args[i], y.Args[i], memo) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Key returns a canonical structural key for hashing expressions (used by
// the implicit-leak hashmap hm and by dedupe caches). Structurally equal
// expressions share a key regardless of subtree sharing. Internal nodes are
// keyed by a memoized Merkle-style FNV-64 hash, so the cost is linear in
// the DAG and the key has constant size — a plain structural string would
// be exponential on the expression DAGs iterative training loops build.
// (Hash collisions would only merge dedupe entries, never unsoundly.)
func Key(e Expr) string {
	return keyMemo(e, make(map[Expr]string))
}

func keyMemo(e Expr, memo map[Expr]string) string {
	switch e.(type) {
	case *Binary, *Unary, *Call:
		if k, ok := memo[e]; ok {
			return k
		}
	}
	var k string
	switch v := e.(type) {
	case IntConst:
		return "i" + strconv.FormatInt(int64(v.V), 10)
	case FloatConst:
		return "f" + strconv.FormatFloat(v.V, 'b', -1, 64)
	case *Symbol:
		return "$" + strconv.Itoa(v.ID)
	case *Binary:
		k = "h" + fnvHash("b", v.Op.String(), keyMemo(v.L, memo), keyMemo(v.R, memo))
	case *Unary:
		k = "h" + fnvHash("u", v.Op.String(), keyMemo(v.X, memo))
	case *Call:
		parts := make([]string, 0, len(v.Args)+2)
		parts = append(parts, "c", v.Name)
		for _, a := range v.Args {
			parts = append(parts, keyMemo(a, memo))
		}
		k = "h" + fnvHash(parts...)
	case nil:
		return "nil"
	default:
		return fmt.Sprintf("?%T", e)
	}
	memo[e] = k
	return k
}

// fnvHash combines parts with FNV-1a 64.
func fnvHash(parts ...string) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime64
		}
		h ^= 0xFF // separator
		h *= prime64
	}
	return strconv.FormatUint(h, 16)
}
