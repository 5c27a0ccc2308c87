package detect

import (
	"fmt"
	"slices"
	"strings"

	"privacyscope/internal/core"
	"privacyscope/internal/minic"
	"privacyscope/internal/obs"
	"privacyscope/internal/solver"
	"privacyscope/internal/sym"
	"privacyscope/internal/symexec"
	"privacyscope/internal/taint"
)

// Context carries the shared analysis state every detector consumes: the
// engine result (one IR walk, reused by all detectors), the report being
// built, and the cross-detector dedupe table. Detectors must not re-run
// the engine; everything they need is here.
type Context struct {
	// Replayer performs two-run witness replay for the built-in detectors.
	Replayer *core.Replayer
	// Opts are the options the run was configured with.
	Opts core.Options
	// File is the unit under analysis (witness replay).
	File *minic.File
	// Res is the shared symbolic-execution result.
	Res *symexec.Result
	// Report accumulates findings across detectors.
	Report *core.Report
	// Obs receives detector telemetry.
	Obs obs.Observer
	// InitFuncs names the configured lifecycle init/declassify gates
	// (orderliness pack); mirrors symexec.Options.InitFuncs.
	InitFuncs map[string]bool

	known map[int]bool
	seen  map[string]bool
	// pairs counts each detector's charged sibling-pair comparisons
	// (differingPairs).
	pairs map[string]int

	// pcKeys and conjTags memoize pcDiffTaint: the key set of each path
	// condition and the secret tags of each conjunct. Detectors compare
	// every pair of observations, and each pair would otherwise re-hash
	// both conditions' DAGs. Allocated on the first comparison.
	pcKeys   map[*solver.PathCondition]map[string]sym.Expr
	conjTags map[sym.Expr][]taint.Tag
}

// emit stamps the detector's rule ID and severity on the finding and
// appends it to the report.
func (rc *Context) emit(d Detector, f core.Finding) {
	f.Rule = d.Rule()
	f.Severity = d.Severity()
	rc.Report.Findings = append(rc.Report.Findings, f)
}

// dedupe returns true when key was already reported. The table is shared
// across detectors, which keep their keys apart by prefix.
func (rc *Context) dedupe(key string) bool {
	if rc.seen == nil {
		rc.seen = make(map[string]bool)
	}
	if rc.seen[key] {
		return true
	}
	rc.seen[key] = true
	return false
}

// knownIDs resolves Opts.KnownInputs display names to symbol IDs.
func (rc *Context) knownIDs() map[int]bool {
	if rc.known == nil {
		rc.known = make(map[int]bool)
		for _, name := range rc.Opts.KnownInputs {
			if s, ok := rc.Res.SecretSymbols[name]; ok {
				rc.known[s.ID] = true
			}
		}
	}
	return rc.known
}

// effectiveTaint computes the taint of an observable value, optionally
// discounting attacker-known inputs (§VIII-B). It returns the label and
// whether prior knowledge was needed to reach a single tag.
func (rc *Context) effectiveTaint(e sym.Expr) (taint.Label, bool) {
	known := rc.knownIDs()
	full := taint.FromTagsObserved(rc.Obs, sym.SecretTags(e))
	if full.IsSingle() || full.IsBottom() || len(known) == 0 {
		return full, false
	}
	var tags []taint.Tag
	for _, s := range sym.FreeSymbols(e) {
		if s.Secret() && !known[s.ID] {
			tags = append(tags, s.Tag)
		}
	}
	eff := taint.FromTagsObserved(rc.Obs, tags)
	return eff, eff.IsSingle()
}

// symbolForTag adapts the engine result to the Alg. 1 kernel's resolver.
func (rc *Context) symbolForTag(tag taint.Tag) *sym.Symbol {
	return rc.Res.SecretSymbolByTag(int(tag))
}

// secretName renders the display name of the secret carrying tag.
func (rc *Context) secretName(tag taint.Tag) string {
	if s := rc.Res.SecretSymbolByTag(int(tag)); s != nil {
		return s.Name
	}
	return "?"
}

// secretNames renders the display names of every secret tainting e, in tag
// order, joined for multi-secret findings (errcode/orderliness packs flag
// mixes the single-tag explicit policy skips). The second result is the
// first tag, for Finding.Tag.
func (rc *Context) secretNames(e sym.Expr) (string, taint.Tag) {
	tags := sym.SecretTags(e)
	if len(tags) == 0 {
		return "?", 0
	}
	names := make([]string, len(tags))
	for i, tg := range tags {
		names[i] = rc.secretName(tg)
	}
	return strings.Join(names, ", "), tags[0]
}

// pcDiffTaint computes the taint of the conjuncts on which two path
// conditions disagree. A single tag means the two executions differ only
// in how one secret steered control flow.
func (rc *Context) pcDiffTaint(a, b *solver.PathCondition) (taint.Tag, bool) {
	if a == b {
		return 0, false
	}
	inA, inB := rc.keysOf(a), rc.keysOf(b)
	var tags []taint.Tag
	diff := false
	collect := func(from, other map[string]sym.Expr) {
		for k, c := range from {
			if _, ok := other[k]; ok {
				continue
			}
			diff = true
			for _, tg := range rc.tagsOf(c) {
				if !slices.Contains(tags, tg) {
					tags = append(tags, tg)
				}
			}
		}
	}
	collect(inA, inB)
	collect(inB, inA)
	if !diff {
		return 0, false
	}
	return taint.FromTagsObserved(rc.Obs, tags).Tag()
}

// keysOf returns pc's conjuncts keyed by structural key, computed once per
// condition.
func (rc *Context) keysOf(pc *solver.PathCondition) map[string]sym.Expr {
	if ks, ok := rc.pcKeys[pc]; ok {
		return ks
	}
	if rc.pcKeys == nil {
		rc.pcKeys = make(map[*solver.PathCondition]map[string]sym.Expr)
	}
	ks := make(map[string]sym.Expr, pc.Len())
	for _, c := range pc.Conjuncts() {
		ks[sym.Key(c)] = c
	}
	rc.pcKeys[pc] = ks
	return ks
}

// tagsOf returns the secret tags of a conjunct, computed once per conjunct.
func (rc *Context) tagsOf(c sym.Expr) []taint.Tag {
	if tags, ok := rc.conjTags[c]; ok {
		return tags
	}
	if rc.conjTags == nil {
		rc.conjTags = make(map[sym.Expr][]taint.Tag)
	}
	tags := sym.SecretTags(c)
	rc.conjTags[c] = tags
	return tags
}

// pairBudget bounds the sibling-pair comparisons one detector makes in one
// run; each comparison diffs two path conditions.
const pairBudget = 100_000

// differingPairs calls visit(i, j), in order of i then j, for every pair
// i < j of a sink's n observations whose values differ; same(i, j) reports
// whether two observations share a value. Observations are first grouped
// by value (the role of Alg. 1's hashmap hm), so a sink whose observations
// all share one value costs nothing, and only differing pairs are charged
// to the detector's pair budget. When the budget runs out, the report's
// coverage is marked truncated (symexec.TruncPairBudget) with a warning
// naming the detector and the sink, and differingPairs returns false: the
// detector must stop, and with no findings the verdict reads Inconclusive.
func (rc *Context) differingPairs(d Detector, sink string, n int, same func(i, j int) bool, visit func(i, j int)) bool {
	class := make([]int, n)
	var reps []int // first observation of each value group
	for i := range class {
		class[i] = len(reps)
		for c, r := range reps {
			if same(r, i) {
				class[i] = c
				break
			}
		}
		if class[i] == len(reps) {
			reps = append(reps, i)
		}
	}
	if len(reps) < 2 {
		return true
	}
	if rc.pairs == nil {
		rc.pairs = make(map[string]int)
	}
	used := rc.pairs[d.Name()]
	defer func() { rc.pairs[d.Name()] = used }()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if class[i] == class[j] {
				continue
			}
			if used == pairBudget {
				if !rc.Report.Coverage.Truncated {
					rc.Report.Coverage.Truncated = true
					rc.Report.Coverage.Reason = symexec.TruncPairBudget
				}
				rc.Report.Warnings = append(rc.Report.Warnings, fmt.Sprintf(
					"%s detector: pair budget of %d sibling comparisons exhausted at sink %s; the remaining pairs were not checked",
					d.Name(), pairBudget, sink))
				return false
			}
			used++
			visit(i, j)
		}
	}
	return true
}

func exprEqual(a, b sym.Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return sym.Equal(a, b)
}

// ocallWhere renders an OCALL sink location exactly like the built-in
// checks: "func@pos".
func ocallWhere(oc symexec.SinkEvent) string {
	return oc.Func + "@" + posString(oc.Pos)
}

func posString(p minic.Pos) string { return p.String() }
