package detect

import (
	"cmp"
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

	// pcIDs memoizes pcDiffTaint: each path condition's distinct
	// conjuncts in ascending ID order. Detectors compare every pair of
	// observations, and each comparison is then a merge of two sorted
	// slices. Allocated on the first comparison.
	pcIDs map[*solver.PathCondition][]conjunct
	// arena is the intern arena whose IDs are conjunct IDs (the first one
	// seen; one engine run has one). keyIDs numbers the structural keys of
	// the other conjuncts, above every arena ID.
	arena  *sym.Interner
	keyIDs map[string]uint64
	// tagBuf collects one comparison's tags.
	tagBuf []taint.Tag
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
	full := taint.FromTagsObserved(rc.Obs, sym.SecretTags(e))
	if !full.IsTop() || len(rc.Opts.KnownInputs) == 0 {
		return full, false
	}
	known := rc.knownIDs()
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
// in how one secret steered control flow. Once both conditions are keyed
// (keysOf), a comparison allocates nothing.
func (rc *Context) pcDiffTaint(a, b *solver.PathCondition) (taint.Tag, bool) {
	if a == b {
		return 0, false
	}
	inA, inB := rc.keysOf(a), rc.keysOf(b)
	tags := rc.tagBuf[:0]
	diff := false
	add := func(c conjunct) {
		diff = true
		for _, tg := range sym.SecretTags(c.e) {
			if !slices.Contains(tags, tg) {
				tags = append(tags, tg)
			}
		}
	}
	i, j := 0, 0
	for i < len(inA) && j < len(inB) {
		switch x, y := inA[i], inB[j]; {
		case x.id == y.id:
			i++
			j++
		case x.id < y.id:
			add(x)
			i++
		default:
			add(y)
			j++
		}
	}
	for ; i < len(inA); i++ {
		add(inA[i])
	}
	for ; j < len(inB); j++ {
		add(inB[j])
	}
	rc.tagBuf = tags
	if !diff {
		return 0, false
	}
	return taint.FromTagsObserved(rc.Obs, tags).Tag()
}

// conjunct is one distinct conjunct of the compared path conditions.
type conjunct struct {
	id uint64
	e  sym.Expr
}

// fallbackIDs is the first ID keysOf gives a conjunct by structural key:
// arena IDs count up from 1 and stay below it.
const fallbackIDs = 1 << 63

// keysOf returns pc's distinct conjuncts in ascending ID order, computed
// once per condition. A conjunct canonical in the run's intern arena is
// named by its intern ID (one node per structure); any other conjunct (a
// leaf, a node the arena could not intern, or a node of another arena) by
// its sym.Key.
func (rc *Context) keysOf(pc *solver.PathCondition) []conjunct {
	if ks, ok := rc.pcIDs[pc]; ok {
		return ks
	}
	if rc.pcIDs == nil {
		rc.pcIDs = make(map[*solver.PathCondition][]conjunct)
	}
	cs := pc.Conjuncts()
	ks := make([]conjunct, len(cs))
	for i, c := range cs {
		id, arena := sym.InternID(c)
		if rc.arena == nil {
			rc.arena = arena
		}
		if arena == nil || arena != rc.arena {
			id = rc.keyID(c)
		}
		ks[i] = conjunct{id: id, e: c}
	}
	slices.SortFunc(ks, func(x, y conjunct) int { return cmp.Compare(x.id, y.id) })
	ks = slices.CompactFunc(ks, func(x, y conjunct) bool { return x.id == y.id })
	rc.pcIDs[pc] = ks
	return ks
}

// keyID numbers c by its structural key.
func (rc *Context) keyID(c sym.Expr) uint64 {
	k := sym.Key(c)
	id, ok := rc.keyIDs[k]
	if !ok {
		if rc.keyIDs == nil {
			rc.keyIDs = make(map[string]uint64)
		}
		id = fallbackIDs + uint64(len(rc.keyIDs))
		rc.keyIDs[k] = id
	}
	return id
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
