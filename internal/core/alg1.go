package core

import (
	"fmt"
	"sort"

	"privacyscope/internal/minic"
	"privacyscope/internal/solver"
	"privacyscope/internal/sym"
	"privacyscope/internal/taint"
)

// This file implements declassify_check (Algorithm 1 of the paper) as a
// front-end-neutral kernel. The PRIML adapter drives it once per declassify
// intrinsic executed by the shared symbolic engine; the MiniC detectors use
// SingleTagLeak for their per-sink explicit policy (the implicit detector
// generalizes Alg. 1's two-sibling hashmap to arbitrary path pairs, see
// implicitDetector in internal/detect).
//
// The kernel is deliberately stateful in exactly the way Alg. 1 is: hm maps
// the single secret tag of a path condition to the value a sibling path
// declassified under it. A second declassify under the same tag either
// matches (the pair reveals nothing; the entry is consumed) or differs (an
// implicit violation). Entries still present when exploration ends flag
// output-presence leaks.

// Alg1Kind classifies a kernel violation.
type Alg1Kind int

// Kernel violation kinds.
const (
	// Alg1Explicit: the declassified value itself carries a single secret
	// tag (line 2 of Alg. 1).
	Alg1Explicit Alg1Kind = iota + 1
	// Alg1Implicit: sibling paths branching on one secret declassify
	// different values (the hm mismatch case).
	Alg1Implicit
	// Alg1Presence: a declassify executed only on paths where π depends
	// on one secret — the end-of-exploration hm check.
	Alg1Presence
	// Alg1Custom: a user-supplied policy reported a violation.
	Alg1Custom
)

// Alg1Violation is one violation detected by the kernel. The front end owns
// rendering: the kernel reports structure (kind, site, tag, values,
// inversion), not prose, so PRIML and MiniC reports keep their own formats.
type Alg1Violation struct {
	Kind Alg1Kind
	// Site is the declassify site ID.
	Site int
	// Pos is the source position of the declassify.
	Pos minic.Pos
	// Tag is the leaked secret's taint tag.
	Tag taint.Tag
	// Value is the declassified expression (explicit and custom kinds).
	Value sym.Expr
	// Values holds the two differing revealed values (implicit kinds;
	// Values[1] is nil for presence leaks).
	Values [2]sym.Expr
	// Pi is the path condition under which the violation manifests.
	Pi *solver.PathCondition
	// Inversion is the affine recovery formula, when one exists.
	Inversion *sym.Inversion
	// CustomMessage is the policy's message (Alg1Custom only).
	CustomMessage string
}

// Alg1 runs declassify_check across the paths of one exploration. Configure
// the exported fields before the first Declassify call.
type Alg1 struct {
	// CustomPolicy, when set, runs at every declassify in addition to the
	// built-in policy; a non-empty message reports an Alg1Custom violation
	// (deduplicated per site+message across sibling paths).
	CustomPolicy func(value sym.Expr, label taint.Label, pi *solver.PathCondition) string
	// SymbolForTag resolves a taint tag to its source symbol so explicit
	// violations can carry an inversion formula. May be nil.
	SymbolForTag func(tag taint.Tag) *sym.Symbol
	// OnViolation receives every violation as it is detected, in
	// exploration order. Must be set before use.
	OnViolation func(v Alg1Violation)

	hm         map[taint.Tag]*alg1Entry
	customSeen map[string]bool
}

type alg1Entry struct {
	value    sym.Expr
	site     int
	pos      minic.Pos
	pi       *solver.PathCondition
	reported bool
}

// NewAlg1 returns a kernel with no custom policy; adjust the fields before
// use.
func NewAlg1() *Alg1 {
	return &Alg1{hm: make(map[taint.Tag]*alg1Entry)}
}

// Declassify runs lines 1–13 of Alg. 1 for one declassify(value) executed
// at site under path condition pi.
func (a *Alg1) Declassify(site int, pos minic.Pos, value sym.Expr, pi *solver.PathCondition) {
	label := sym.TaintOf(value)
	if a.CustomPolicy != nil {
		if msg := a.CustomPolicy(value, label, pi); msg != "" && !a.dedupeCustom(site, msg) {
			a.OnViolation(Alg1Violation{
				Kind:          Alg1Custom,
				Site:          site,
				Pos:           pos,
				Value:         value,
				Pi:            pi,
				CustomMessage: msg,
			})
		}
	}
	if tag, inv, leak := SingleTagLeak(value, label, a.SymbolForTag); leak {
		a.OnViolation(Alg1Violation{
			Kind:      Alg1Explicit,
			Site:      site,
			Pos:       pos,
			Tag:       tag,
			Value:     value,
			Pi:        pi,
			Inversion: inv,
		})
		return
	}
	piTag, single := pi.Taint().Tag()
	if !single {
		return
	}
	entry, ok := a.hm[piTag]
	switch {
	case !ok:
		a.hm[piTag] = &alg1Entry{value: value, site: site, pos: pos, pi: pi}
	case !sym.Equal(entry.value, value):
		if !entry.reported {
			a.OnViolation(Alg1Violation{
				Kind:   Alg1Implicit,
				Site:   site,
				Pos:    pos,
				Tag:    piTag,
				Values: [2]sym.Expr{entry.value, value},
				Pi:     pi,
			})
			entry.reported = true
		}
	default:
		// Sibling path revealed the same value: the pair carries no
		// information about the secret; consume the entry.
		delete(a.hm, piTag)
	}
}

// Finish runs the end-of-last-path check of Alg. 1: any unmatched,
// unreported hm entry is an output-presence violation, provided more than
// one path completed (a single path has no silent sibling to compare to).
func (a *Alg1) Finish(paths int) {
	tags := make([]taint.Tag, 0, len(a.hm))
	for tag := range a.hm {
		tags = append(tags, tag)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	for _, tag := range tags {
		entry := a.hm[tag]
		if entry.reported || paths < 2 {
			continue
		}
		a.OnViolation(Alg1Violation{
			Kind:   Alg1Presence,
			Site:   entry.site,
			Pos:    entry.pos,
			Tag:    tag,
			Values: [2]sym.Expr{entry.value, nil},
			Pi:     entry.pi,
		})
	}
}

// HmSnapshot renders the live hashmap as tag → value strings, the hm column
// of the paper's Tables II/III.
func (a *Alg1) HmSnapshot() map[string]string {
	out := make(map[string]string, len(a.hm))
	for tag, e := range a.hm {
		out[tag.String()] = e.value.String()
	}
	return out
}

func (a *Alg1) dedupeCustom(site int, msg string) bool {
	if a.customSeen == nil {
		a.customSeen = make(map[string]bool)
	}
	key := fmt.Sprintf("%d|%s", site, msg)
	if a.customSeen[key] {
		return true
	}
	a.customSeen[key] = true
	return false
}

// SingleTagLeak decides line 2 of Alg. 1 for any front end: a value whose
// label is exactly one secret tag is an explicit nonreversibility violation.
// When symbolForTag resolves the tag's source symbol, the affine inversion
// (the attacker's recovery formula) is computed alongside.
func SingleTagLeak(value sym.Expr, label taint.Label, symbolForTag func(taint.Tag) *sym.Symbol) (taint.Tag, *sym.Inversion, bool) {
	tag, single := label.Tag()
	if !single {
		return 0, nil, false
	}
	var inv *sym.Inversion
	if symbolForTag != nil {
		if s := symbolForTag(tag); s != nil {
			if i, ok := sym.InvertFor(value, s.ID); ok {
				inv = i
			}
		}
	}
	return tag, inv, true
}
