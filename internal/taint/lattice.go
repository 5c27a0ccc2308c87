// Package taint implements the security semi-lattice and the taint
// propagation policy of PrivacyScope (Fig. 1, Fig. 2 and Table I of the
// paper).
//
// The lattice has a bottom element ⊥ (not sensitive), one incomparable
// element tᵢ per secret source, and a top element ⊤ (tainted by two or more
// independent secret sources). Only the join operation is defined; there is
// no meet, which is why the paper calls it a semi-lattice.
//
// The central intuition of nonreversibility is encoded in the lattice:
// revealing a value labelled tᵢ lets an attacker deterministically recover
// the single secret i, while revealing a value labelled ⊤ does not, because
// each secret masks the others.
package taint

import (
	"fmt"
	"strconv"

	"privacyscope/internal/obs"
)

// Tag identifies one secret source (t1, t2, … in the paper). Tags are
// allocated by a Allocator; the zero value is never a valid tag.
type Tag int

// String renders the tag in the paper's notation, e.g. "t1".
func (t Tag) String() string { return "t" + strconv.Itoa(int(t)) }

type labelKind uint8

const (
	kindBottom labelKind = iota
	kindSingle
	kindTop
)

// Label is an element of the security semi-lattice: ⊥, a single source tag
// tᵢ, or ⊤. The zero value is ⊥, so an unannotated value is untainted.
type Label struct {
	kind labelKind
	tag  Tag
}

// Bottom is the ⊥ label: the value does not depend on any secret.
func Bottom() Label { return Label{} }

// Top is the ⊤ label: the value depends on two or more distinct secrets.
func Top() Label { return Label{kind: kindTop} }

// Single returns the label tᵢ for the given source tag.
func Single(tag Tag) Label { return Label{kind: kindSingle, tag: tag} }

// IsBottom reports whether the label is ⊥.
func (l Label) IsBottom() bool { return l.kind == kindBottom }

// IsTop reports whether the label is ⊤.
func (l Label) IsTop() bool { return l.kind == kindTop }

// IsSingle reports whether the label is a single source tag tᵢ, the only
// labelling that violates nonreversibility when it reaches a sink.
func (l Label) IsSingle() bool { return l.kind == kindSingle }

// Tag returns the source tag and true when the label is a single tᵢ.
func (l Label) Tag() (Tag, bool) {
	if l.kind != kindSingle {
		return 0, false
	}
	return l.tag, true
}

// Join computes the least upper bound of two labels (Fig. 1):
//
//	⊥ ⊔ x = x
//	tᵢ ⊔ tᵢ = tᵢ
//	tᵢ ⊔ tⱼ = ⊤   (i ≠ j)
//	⊤ ⊔ x = ⊤
func (l Label) Join(other Label) Label {
	switch {
	case l.kind == kindBottom:
		return other
	case other.kind == kindBottom:
		return l
	case l.kind == kindTop || other.kind == kindTop:
		return Top()
	case l.tag == other.tag:
		return l
	default:
		return Top()
	}
}

// LessOrEqual reports whether l ⊑ other in the lattice order.
func (l Label) LessOrEqual(other Label) bool {
	switch {
	case l.kind == kindBottom:
		return true
	case other.kind == kindTop:
		return true
	case l.kind == kindSingle && other.kind == kindSingle:
		return l.tag == other.tag
	default:
		return false
	}
}

// Equal reports whether two labels are the same lattice element.
func (l Label) Equal(other Label) bool {
	if l.kind != other.kind {
		return false
	}
	return l.kind != kindSingle || l.tag == other.tag
}

// String renders the label in the paper's notation: "⊥", "t3" or "⊤".
func (l Label) String() string {
	switch l.kind {
	case kindBottom:
		return "⊥"
	case kindTop:
		return "⊤"
	default:
		return l.tag.String()
	}
}

// FromTagsObserved is FromTags with lattice telemetry: it counts one
// taint.joins per tag folded beyond the first and a taint.top_saturations
// when the fold reaches ⊤ — the engine-side equivalents of the Policy
// counters.
func FromTagsObserved(o obs.Observer, tags []Tag) Label {
	if len(tags) > 1 {
		o.Add("taint.joins", int64(len(tags)-1))
	}
	l := FromTags(tags)
	if l.IsTop() {
		o.Add("taint.top_saturations", 1)
	}
	return l
}

// FromTags builds the label describing a value that depends on exactly the
// given set of secret sources: ⊥ for none, tᵢ for one, ⊤ for several. This
// is the bridge used by the symbolic engine, where taint is derived from the
// free secret symbols of an expression (Design decision 1 in DESIGN.md).
func FromTags(tags []Tag) Label {
	switch len(tags) {
	case 0:
		return Bottom()
	case 1:
		return Single(tags[0])
	}
	first := tags[0]
	for _, t := range tags[1:] {
		if t != first {
			return Top()
		}
	}
	return Single(first)
}

// Allocator hands out fresh source tags, one per get_secret / [in]
// parameter / decrypt-intrinsic result. The zero value is ready to use.
type Allocator struct {
	next Tag
}

// Fresh returns the next unused tag (t1, t2, …).
func (a *Allocator) Fresh() Tag {
	a.next++
	return a.next
}

// Count returns how many tags have been allocated so far.
func (a *Allocator) Count() int {
	return int(a.next)
}

// Policy implements Table I of the paper: the PrivacyScope propagation
// policy for nonreversibility violation. Methods are named after the policy
// components (P_const, P_unop, …).
type Policy struct {
	alloc *Allocator
	obs   obs.Observer
}

// NewPolicy returns a policy drawing fresh tags from alloc.
func NewPolicy(alloc *Allocator) *Policy {
	return &Policy{alloc: alloc, obs: obs.Nop()}
}

// Instrument routes lattice telemetry (taint.joins, taint.top_saturations)
// to o and returns the policy for chaining.
func (p *Policy) Instrument(o obs.Observer) *Policy {
	p.obs = obs.Or(o)
	return p
}

// countJoin records one join and its ⊤-saturation (a join whose inputs were
// both below ⊤ but whose output is ⊤ — the moment a value stops being
// reversible to any single secret).
func (p *Policy) countJoin(a, b, out Label) Label {
	p.obs.Add("taint.joins", 1)
	if out.IsTop() && !a.IsTop() && !b.IsTop() {
		p.obs.Add("taint.top_saturations", 1)
	}
	return out
}

// Const labels a literal constant: always ⊥.
func (p *Policy) Const() Label { return Bottom() }

// GetSecret labels a value returned by get_secret(secret) with a fresh
// single-source tag.
func (p *Policy) GetSecret() Label { return Single(p.alloc.Fresh()) }

// Unop propagates taint through a unary operator: the label is preserved.
func (p *Policy) Unop(t Label) Label { return t }

// Assign propagates taint through an assignment: the label is preserved.
func (p *Policy) Assign(t Label) Label { return t }

// Binop propagates taint through a binary operator (Fig. 2): the join of the
// operand labels.
func (p *Policy) Binop(t1, t2 Label) Label { return p.countJoin(t1, t2, t1.Join(t2)) }

// Cond propagates taint into the path-condition variable π when a branch is
// taken (Fig. 2): the join of the condition's label and the current π label.
func (p *Policy) Cond(cond, pi Label) Label { return p.countJoin(cond, pi, cond.Join(pi)) }

// Map tracks the taint status of named program variables, i.e. the τΔ
// mapping of the paper's PS-* semantics. The special name PiVar holds the
// taint of the path condition π.
type Map struct {
	labels map[string]Label
}

// PiVar is the reserved variable name under which a Map stores the taint of
// the path condition π.
const PiVar = "π"

// NewMap returns an empty τΔ.
func NewMap() *Map {
	return &Map{labels: make(map[string]Label)}
}

// Get returns the label of a variable; unknown variables are ⊥.
func (m *Map) Get(name string) Label { return m.labels[name] }

// Set records the label of a variable.
func (m *Map) Set(name string, l Label) { m.labels[name] = l }

// Pi returns the taint of the path condition π.
func (m *Map) Pi() Label { return m.labels[PiVar] }

// SetPi records the taint of the path condition π.
func (m *Map) SetPi(l Label) { m.labels[PiVar] = l }

// Clone returns an independent copy, used when the symbolic engine forks at
// a conditional branch.
func (m *Map) Clone() *Map {
	c := &Map{labels: make(map[string]Label, len(m.labels))}
	for k, v := range m.labels {
		c.labels[k] = v
	}
	return c
}

// Len returns the number of tracked variables (including π if set).
func (m *Map) Len() int { return len(m.labels) }

// String renders the map in the paper's trace-table notation, e.g.
// "{h→t1, π→⊥}". Iteration order is not specified; use Entries for stable
// output.
func (m *Map) String() string {
	return fmt.Sprintf("τΔ(%d vars)", len(m.labels))
}

// Entries returns a copy of the underlying mapping for callers that need to
// render or compare the whole τΔ.
func (m *Map) Entries() map[string]Label {
	out := make(map[string]Label, len(m.labels))
	for k, v := range m.labels {
		out[k] = v
	}
	return out
}
