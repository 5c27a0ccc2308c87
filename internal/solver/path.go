// Package solver implements the path-condition store π and a lightweight
// constraint solver for the symbolic execution engine.
//
// The solver plays the role of the Clang Static Analyzer's range constraint
// manager in the paper's prototype: it decides (soundly but incompletely)
// whether a conjunction of branch conditions is satisfiable, so the engine
// can prune infeasible paths, and it can produce a concrete model of a path
// condition, which the checker uses to replay leak witnesses.
package solver

import (
	"strings"
	"sync"

	"privacyscope/internal/sym"
	"privacyscope/internal/taint"
)

// PathCondition is π: an ordered conjunction of boolean-position symbolic
// expressions. The zero value is the empty (True) condition. Values are
// persistent nodes: And links a new node to its parent in O(1), so forked
// states share their common prefix and alias safely.
//
// Each node lazily caches its interval state (see Solver.boundsOf): the
// parent's state with the node's own conjunct applied, so a feasibility
// query costs what the newest conjunct adds, not the length of the path.
type PathCondition struct {
	parent *PathCondition // nil at the root
	last   sym.Expr       // newest conjunct; nil at the root
	n      int            // number of conjuncts

	once   sync.Once
	bounds *bounds // set once by Solver.boundsOf
}

// True returns the empty path condition.
func True() *PathCondition { return &PathCondition{} }

// And returns pc ∧ e. Constant-true conjuncts are dropped.
func (pc *PathCondition) And(e sym.Expr) *PathCondition {
	if c, ok := e.(sym.IntConst); ok && c.V != 0 {
		return pc
	}
	return &PathCondition{parent: pc, last: e, n: pc.n + 1}
}

// NegateLast returns a copy of pc with its most recent conjunct negated —
// the ¬ operator of the paper's PS-FCOND rule, which "negates the most
// recent added path constraint in π". Returns pc unchanged when empty.
func (pc *PathCondition) NegateLast() *PathCondition {
	if pc.n == 0 {
		return pc
	}
	return &PathCondition{parent: pc.parent, last: sym.Negate(pc.last), n: pc.n}
}

// Conjuncts returns the conjunction's terms in order.
func (pc *PathCondition) Conjuncts() []sym.Expr {
	out := make([]sym.Expr, pc.n)
	for c := pc; c.n > 0; c = c.parent {
		out[c.n-1] = c.last
	}
	return out
}

// Len returns the number of conjuncts.
func (pc *PathCondition) Len() int { return pc.n }

// SecretTags returns the distinct secret tags appearing anywhere in π.
func (pc *PathCondition) SecretTags() []taint.Tag {
	var tags []taint.Tag
	seen := make(map[taint.Tag]bool)
	for _, e := range pc.Conjuncts() {
		for _, tag := range sym.SecretTags(e) {
			if !seen[tag] {
				seen[tag] = true
				tags = append(tags, tag)
			}
		}
	}
	return tags
}

// Taint returns the join of the taint labels of all conjuncts — the taint
// status τΔ[π] of the path condition, which Alg. 1 consults for implicit
// leak detection. Derived directly from free secret symbols.
func (pc *PathCondition) Taint() taint.Label {
	return taint.FromTags(pc.SecretTags())
}

// String renders π as in Table IV: "True" when empty, otherwise the
// conjunction joined with " ∧ ".
func (pc *PathCondition) String() string {
	if pc.n == 0 {
		return "True"
	}
	parts := make([]string, pc.n)
	for i, e := range pc.Conjuncts() {
		parts[i] = trimParens(e.String())
	}
	return strings.Join(parts, " ∧ ")
}

// trimParens drops one redundant outer parenthesis pair for readability.
func trimParens(s string) string {
	if len(s) >= 2 && s[0] == '(' && s[len(s)-1] == ')' {
		depth := 0
		for i := 0; i < len(s)-1; i++ {
			switch s[i] {
			case '(':
				depth++
			case ')':
				depth--
			}
			if depth == 0 {
				return s // closes before the end; outer pair not redundant
			}
		}
		return s[1 : len(s)-1]
	}
	return s
}
