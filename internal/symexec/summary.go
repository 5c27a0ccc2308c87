package symexec

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"privacyscope/internal/ir"
	"privacyscope/internal/mem"
	"privacyscope/internal/minic"
	"privacyscope/internal/obs"
	"privacyscope/internal/sym"
)

// This file implements compositional call resolution: instead of re-inlining
// a callee at every call site on every path, the engine consults a
// bottom-up-built table of per-function summaries (Options.SummaryTable).
//
// The design constraint is byte-identity with inline mode: with summaries on,
// every finding, verdict, warning and coverage counter must match what the
// inline engine produces on the same program — inline mode stays the
// differential oracle (see the summary differential test suite). That forces
// three summary classes:
//
//   - SummaryPure: the callee is statically side-effect-free (scalar integer
//     params and locals, no globals, no pointers, only transitively-pure
//     callees) and a scratch symbolic run completed on exactly one path with
//     no warnings, no conjured state and an empty path condition. Its return
//     value, abstracted over parameter slots, is replayed at call sites by
//     substituting the actual arguments through the same folding
//     constructors — producing the identical expression inlining would have,
//     at O(skeleton) cost instead of O(body × paths). The summary also
//     replays the callee's step/cost/region accounting so budgets and
//     coverage counters cross over at exactly the same point as inline mode.
//   - SummaryInline: anything outside that fragment. Call sites inline
//     exactly as before — identical by construction.
//   - SummaryHavoc: a recursive callee (inline mode would spiral to the
//     depth limit) or a statically-pure candidate whose scratch run blew the
//     summary step budget. Call sites get a fresh unconstrained result and
//     the exploration is marked truncated (TruncSummaryHavoc): a run that
//     havoc'd anything can degrade to Inconclusive but never claim Secure.
//
// Sparse mode falls out of the classification: an untainted helper's
// skeleton is small (often a constant after folding), so helpers that never
// touch secrets collapse to cheap no-op applications.

// SummaryKind classifies a function summary.
type SummaryKind uint8

// Summary kinds.
const (
	// SummaryPure replays an abstracted return value at call sites.
	SummaryPure SummaryKind = iota + 1
	// SummaryInline makes call sites inline the callee (the differential
	// oracle path, used for everything outside the pure fragment).
	SummaryInline
	// SummaryHavoc replaces the call with a fresh unconstrained value and
	// truncates coverage (recursion, over-budget callees).
	SummaryHavoc
)

func (k SummaryKind) String() string {
	switch k {
	case SummaryPure:
		return "pure"
	case SummaryInline:
		return "inline"
	case SummaryHavoc:
		return "havoc"
	}
	return "?"
}

// Summary is one function's reusable analysis result.
type Summary struct {
	// Func is the summarized function's name.
	Func string
	// Kind selects the application strategy.
	Kind SummaryKind
	// Reason says why Kind is not SummaryPure (diagnostics; surfaced in the
	// havoc warning).
	Reason string
	// NumParams is the callee's declared parameter count.
	NumParams int
	// Depth is the maximum inline-frame depth the callee's own call chain
	// needs. A pure summary only applies when the caller's frame depth plus
	// Depth stays within InlineDepth — past that, inline mode would have
	// truncated the chain, so the application falls back to inlining to
	// reproduce that behavior.
	Depth int
	// Cost, States, Steps and Regions replay the callee's accounting at
	// each application: path cost, exploded states visited (more than Cost
	// when a faint join ran both arms), engine steps (loop iterations
	// included), and memory regions the inlined body would have allocated.
	Cost    int64
	States  int64
	Steps   int64
	Regions int64
	// Skeleton is the return value over parameter slots (SummaryPure only).
	Skeleton *sym.SumExpr
	// Ocalls and Declassifies list the OCALL sinks and declassify/decrypt
	// obligations statically reachable from the callee — the propagated
	// obligations a havoc application skips (they are warned about and
	// degrade coverage) and the checker surfaces on its span.
	Ocalls       []string
	Declassifies []string
	// AffineCoef/AffineConst record the return value as an affine
	// combination of parameter slots when one is derivable (slot index →
	// coefficient): the reusable input→output relation of the recovery
	// formula machinery, exposed for diagnostics and tests.
	AffineCoef  map[int]float64
	AffineConst float64
	HasAffine   bool
}

// SummaryTable is the read-only per-function summary map one analysis run
// shares across entry points (and, under WithParallelism, across concurrent
// per-ECALL engines — skeletons are builder-independent, so the table is
// safe to share once built).
type SummaryTable struct {
	funcs map[string]*Summary
}

// Lookup returns the named function's summary, or nil.
func (t *SummaryTable) Lookup(name string) *Summary {
	if t == nil {
		return nil
	}
	return t.funcs[name]
}

// Len reports how many functions are summarized.
func (t *SummaryTable) Len() int {
	if t == nil {
		return 0
	}
	return len(t.funcs)
}

// Summaries returns the table's entries sorted by function name.
func (t *SummaryTable) Summaries() []*Summary {
	if t == nil {
		return nil
	}
	out := make([]*Summary, 0, len(t.funcs))
	for _, s := range t.funcs {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Func < out[j].Func })
	return out
}

// SummaryStore is the persistence hook for computed summaries — the disk
// tier. Get returns a previously Put payload; both must be safe for
// concurrent use. diskcache.Cache satisfies it.
type SummaryStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, payload []byte)
}

// SummaryBuildConfig parameterizes BuildSummaryTable.
type SummaryBuildConfig struct {
	// Store, when non-nil, persists summaries keyed on function body hash
	// (own + transitive callees) + engine fingerprint + the option slice
	// that affects summary semantics — function-granular invalidation: edit
	// one helper and only it (plus its callers) recomputes.
	Store SummaryStore
	// Fingerprint is the engine build/configuration fingerprint folded into
	// store keys (privacyscope.Fingerprint at the facade layer).
	Fingerprint string
	// Obs receives summary.* counters and the summary/build span.
	Obs obs.Observer
}

// builtinNames are the engine's natively-modeled calls; a pure function may
// not call any of them (their models conjure symbols, touch memory, or have
// entropy semantics a skeleton cannot replay).
var builtinNames = map[string]bool{
	"memcpy": true, "memset": true, "rand": true, "sgx_read_rand": true,
	"srand": true, "free": true, "malloc": true,
}

// BuildSummaryTable computes a summary for every defined function that
// appears as a call target, bottom-up in SCC order (callees before callers;
// recursive components havoc without a scratch run). The table is read-only
// after construction.
func BuildSummaryTable(ctx context.Context, file *minic.File, opts Options, bc SummaryBuildConfig) *SummaryTable {
	ob := obs.Or(bc.Obs)
	span := ob.StartSpan("summary/build")
	defer span.End()

	prog := ir.LowerMiniC(file)
	// The scratch module drops globals: a pure function cannot reference
	// them (the shape check rejects global identifiers), and stripping them
	// keeps the scratch engine's region count equal to the per-call region
	// delta an inline execution would produce.
	scratchFile := *file
	scratchFile.Globals = nil
	b := &tableBuilder{
		ctx:         ctx,
		prog:        prog,
		scratchProg: ir.LowerMiniC(&scratchFile),
		opts:        opts,
		bc:          bc,
		ob:          ob,
		table:       &SummaryTable{funcs: make(map[string]*Summary)},
		globals:     make(map[string]bool, len(file.Globals)),
		decls:       make(map[string]*minic.FuncDecl, len(file.Functions)),
	}
	for _, g := range file.Globals {
		b.globals[g.Name] = true
	}
	for _, fd := range file.Functions {
		if fd.Body != nil {
			b.decls[fd.Name] = fd
		}
	}

	// Only call targets need summaries; entry points nobody calls do not.
	called := make(map[string]bool)
	for _, fn := range prog.Funcs {
		if fn.Body == nil {
			continue
		}
		for _, callee := range fn.Calls {
			if target, ok := prog.Funcs[callee]; ok && target.Body != nil {
				called[callee] = true
			}
		}
	}

	for _, scc := range prog.CallSCCs() {
		for _, name := range scc.Funcs {
			if !called[name] {
				continue
			}
			b.table.funcs[name] = b.resolve(name, scc.Recursive)
		}
	}
	span.Annotate(obs.F("functions", fmt.Sprint(len(b.table.funcs))))
	return b.table
}

type tableBuilder struct {
	ctx         context.Context
	prog        *ir.Program
	scratchProg *ir.Program
	opts        Options
	bc          SummaryBuildConfig
	ob          obs.Observer
	table       *SummaryTable
	globals     map[string]bool
	decls       map[string]*minic.FuncDecl
	hashes      map[string]string
}

// resolve produces one function's summary, consulting the store first.
func (b *tableBuilder) resolve(name string, recursive bool) *Summary {
	key := b.storeKey(name)
	if b.bc.Store != nil {
		if payload, ok := b.bc.Store.Get(key); ok {
			if s, err := decodeSummary(payload); err == nil && s.Func == name {
				b.ob.Add("summary.cache.hits", 1)
				return s
			}
			// Corrupt or foreign payload: recompute, never trust it.
			b.ob.Add("summary.cache.undecodable", 1)
		} else {
			b.ob.Add("summary.cache.misses", 1)
		}
	}
	s := b.compute(name, recursive)
	b.ob.Add("summary.computed", 1)
	if b.bc.Store != nil {
		b.bc.Store.Put(key, encodeSummary(s))
	}
	return s
}

// compute classifies one function from scratch.
func (b *tableBuilder) compute(name string, recursive bool) *Summary {
	fn := b.prog.Funcs[name]
	s := &Summary{
		Func:      name,
		NumParams: len(fn.Params),
	}
	s.Ocalls, s.Declassifies = b.obligations(name)
	if recursive {
		s.Kind = SummaryHavoc
		s.Reason = "recursive"
		b.ob.Add("summary.havoc.recursive", 1)
		return s
	}
	if ok, reason := b.pureShape(fn); !ok {
		s.Kind = SummaryInline
		s.Reason = reason
		return s
	}
	return b.scratchRun(fn, s)
}

// obligations lists the OCALL sinks and declassify obligations statically
// reachable from the function, sorted.
func (b *tableBuilder) obligations(name string) (ocalls, declassifies []string) {
	for callee := range b.prog.ReachableCalls(name) {
		if b.opts.OCallFuncs[callee] {
			ocalls = append(ocalls, callee)
		}
		if _, ok := b.opts.DecryptFuncs[callee]; ok {
			declassifies = append(declassifies, callee)
		}
	}
	sort.Strings(ocalls)
	sort.Strings(declassifies)
	return ocalls, declassifies
}

// pureShape statically checks whether the function is inside the pure
// fragment: integer scalar params/locals/return, no globals, no pointer or
// aggregate operations, no float literals, and calls only to
// already-classified pure functions. The check is deliberately conservative
// — anything it cannot prove falls back to inlining, which is always
// byte-identical.
func (b *tableBuilder) pureShape(fn *ir.Func) (bool, string) {
	if fn.Body == nil {
		return false, "no body"
	}
	if !isIntBasic(fn.Return) {
		return false, "non-integer return type"
	}
	for _, p := range fn.Params {
		if !isIntBasic(p.Type) {
			return false, "non-integer parameter " + p.Name
		}
	}
	return b.pureOp(fn.Body)
}

func isIntBasic(t minic.Type) bool {
	basic, ok := t.(minic.Basic)
	return ok && basic.IsInteger()
}

func (b *tableBuilder) pureOp(op ir.Op) (bool, string) {
	switch v := op.(type) {
	case *ir.BlockOp:
		for _, o := range v.Ops {
			if ok, r := b.pureOp(o); !ok {
				return false, r
			}
		}
	case *ir.EmptyOp, *ir.BreakOp, *ir.ContinueOp:
	case *ir.DeclOp:
		for _, d := range v.Decls {
			if !isIntBasic(d.Type) {
				return false, "non-integer local " + d.Name
			}
			if d.Init != nil {
				if ok, r := b.pureExpr(d.Init); !ok {
					return false, r
				}
			}
		}
	case *ir.ExprOp:
		return b.pureExpr(v.X)
	case *ir.IfOp:
		if ok, r := b.pureExpr(v.Cond); !ok {
			return false, r
		}
		if ok, r := b.pureOp(v.Then); !ok {
			return false, r
		}
		if v.Else != nil {
			return b.pureOp(v.Else)
		}
	case *ir.LoopOp:
		if v.Init != nil {
			if ok, r := b.pureOp(v.Init); !ok {
				return false, r
			}
		}
		if v.Cond != nil {
			if ok, r := b.pureExpr(v.Cond); !ok {
				return false, r
			}
		}
		if v.Post != nil {
			if ok, r := b.pureExpr(v.Post); !ok {
				return false, r
			}
		}
		return b.pureOp(v.Body)
	case *ir.SwitchOp:
		if ok, r := b.pureExpr(v.Tag); !ok {
			return false, r
		}
		for _, c := range v.Cases {
			if c.Value != nil {
				if ok, r := b.pureExpr(c.Value); !ok {
					return false, r
				}
			}
			for _, o := range c.Body {
				if ok, r := b.pureOp(o); !ok {
					return false, r
				}
			}
		}
	case *ir.ReturnOp:
		if v.X != nil {
			return b.pureExpr(v.X)
		}
	default:
		// NoteOp and anything new: out of the fragment.
		return false, fmt.Sprintf("op %T outside pure fragment", op)
	}
	return true, ""
}

func (b *tableBuilder) pureExpr(e minic.Expr) (bool, string) {
	switch v := e.(type) {
	case *minic.IntLitExpr:
	case *minic.IdentExpr:
		if b.globals[v.Name] {
			return false, "references global " + v.Name
		}
	case *minic.BinExpr:
		if ok, r := b.pureExpr(v.L); !ok {
			return false, r
		}
		return b.pureExpr(v.R)
	case *minic.UnExpr:
		return b.pureExpr(v.X)
	case *minic.AssignExpr:
		if _, isIdent := v.LHS.(*minic.IdentExpr); !isIdent {
			return false, "assignment to non-scalar lvalue"
		}
		if ok, r := b.pureExpr(v.LHS); !ok {
			return false, r
		}
		return b.pureExpr(v.RHS)
	case *minic.IncDecExpr:
		return b.pureExpr(v.X)
	case *minic.CallExpr:
		if b.opts.OCallFuncs[v.Fun] || isIntrinsic(b.opts, v.Fun) || builtinNames[v.Fun] {
			return false, "calls modeled builtin/sink " + v.Fun
		}
		callee := b.table.Lookup(v.Fun)
		if callee == nil || callee.Kind != SummaryPure {
			return false, "calls non-pure function " + v.Fun
		}
		for _, a := range v.Args {
			if ok, r := b.pureExpr(a); !ok {
				return false, r
			}
		}
	default:
		// Floats, strings, pointers, arrays, members, casts, conditional
		// expressions, sizeof: all outside the fragment.
		return false, fmt.Sprintf("expression %T outside pure fragment", e)
	}
	return true, ""
}

// scratchRun executes a statically-pure candidate once, symbolically, with
// one fresh placeholder per parameter, and validates that the run really
// was pure and single-path before committing to a skeleton.
func (b *tableBuilder) scratchRun(fn *ir.Func, s *Summary) *Summary {
	inline := func(reason string) *Summary {
		s.Kind = SummaryInline
		s.Reason = reason
		s.Skeleton = nil
		return s
	}
	params := make([]ParamSpec, len(fn.Params))
	for i, p := range fn.Params {
		params[i] = ParamSpec{Name: p.Name, Class: ParamPublic}
	}
	sopts := b.opts
	sopts.Obs = nil // scratch telemetry must not pollute the run's counters
	sopts.TrackTrace = false
	sopts.NoteHook = nil
	sopts.PathWorkers = 0
	sopts.MaxPaths = 2 // one is expected; two detects a fork cheaply
	sopts.MaxSteps = b.opts.summaryBudget()
	sopts.Summaries = false // nested pure callees inline, so costs roll up
	sopts.SummaryTable = nil

	eng := NewIR(b.scratchProg, sopts)
	res, err := eng.AnalyzeFunction(context.Background(), fn.Name, params)
	if err != nil {
		return inline("scratch run failed: " + err.Error())
	}
	b.ob.Add("summary.steps.executed", int64(res.Coverage.StepsUsed))
	if res.Coverage.Truncated {
		if res.Coverage.Reason == TruncStepBudget {
			s.Kind = SummaryHavoc
			s.Reason = fmt.Sprintf("exceeds summary step budget (%d)", b.opts.summaryBudget())
			b.ob.Add("summary.havoc.budget", 1)
			return s
		}
		return inline("scratch run truncated: " + string(res.Coverage.Reason))
	}
	if len(res.Paths) != 1 {
		return inline(fmt.Sprintf("%d scratch paths", len(res.Paths)))
	}
	if res.Coverage.PrunedPaths > 0 || len(res.Warnings) > 0 {
		return inline("scratch run forked or warned")
	}
	p := res.Paths[0]
	if p.Incomplete {
		return inline("scratch path incomplete")
	}
	if len(p.Ocalls) > 0 || len(p.Outs) > 0 {
		return inline("scratch run produced observations")
	}
	if p.PC.Len() != 0 {
		return inline("scratch path condition not empty")
	}
	if p.Return == nil {
		return inline("no return value")
	}
	placeholders := res.Builder.Symbols()
	if len(placeholders) != len(fn.Params) {
		return inline("scratch run conjured state")
	}
	paramOf := make(map[int]int, len(placeholders))
	for i, ph := range placeholders {
		paramOf[ph.ID] = i
	}
	skel, aerr := sym.Abstract(p.Return, paramOf)
	if aerr != nil {
		return inline("abstraction failed: " + aerr.Error())
	}

	s.Kind = SummaryPure
	s.Skeleton = skel
	s.Cost = int64(p.Cost)
	// The scratch run's entry and path-end snapshots are not part of an
	// inlined body.
	s.States = int64(res.States) - 2
	s.Steps = int64(res.Coverage.StepsUsed)
	s.Regions = int64(res.Regions)
	s.Depth = 1
	for _, callee := range fn.Calls {
		if cs := b.table.Lookup(callee); cs != nil && cs.Kind == SummaryPure && cs.Depth+1 > s.Depth {
			s.Depth = cs.Depth + 1
		}
	}
	if a := sym.ExtractAffine(p.Return); a != nil {
		s.HasAffine = true
		s.AffineConst = a.Const
		s.AffineCoef = make(map[int]float64, len(a.Coef))
		for id, coef := range a.Coef {
			s.AffineCoef[paramOf[id]] = coef
		}
	}
	return s
}

// storeKey addresses one function's summary in the store: engine
// fingerprint, the function's own body hash plus the body hashes of every
// transitively reachable defined callee, and the options that change
// summary semantics. Editing any function in the chain changes the key —
// function-granular invalidation.
func (b *tableBuilder) storeKey(name string) string {
	if b.hashes == nil {
		b.hashes = make(map[string]string, len(b.decls))
		for fname, fd := range b.decls {
			b.hashes[fname] = funcSourceString(fd)
		}
	}
	h := sha256.New()
	frame := func(s string) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	frame("summary/v1")
	frame(b.bc.Fingerprint)
	frame(name)
	reach := make([]string, 0, 8)
	for callee := range b.prog.ReachableCalls(name) {
		if _, ok := b.hashes[callee]; ok {
			reach = append(reach, callee)
		}
	}
	sort.Strings(reach)
	for _, callee := range reach {
		frame(callee)
		frame(b.hashes[callee])
	}
	frame(fmt.Sprintf("loop=%d zero=%t externs=%t inline=%d budget=%d",
		b.opts.loopBound(), b.opts.ZeroDefaultVars, b.opts.ConservativeExterns,
		b.opts.inlineDepth(), b.opts.summaryBudget()))
	frame(strings.Join(sortedKeys(b.opts.OCallFuncs), ","))
	intr := make([]string, 0, len(b.opts.Intrinsics))
	for k := range b.opts.Intrinsics {
		intr = append(intr, k)
	}
	sort.Strings(intr)
	frame(strings.Join(intr, ","))
	dec := make([]string, 0, len(b.opts.DecryptFuncs))
	for k, idx := range b.opts.DecryptFuncs {
		dec = append(dec, fmt.Sprintf("%s=%d", k, idx))
	}
	sort.Strings(dec)
	frame(strings.Join(dec, ","))
	return "summary-" + hex.EncodeToString(h.Sum(nil))[:40]
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// funcSourceString renders a function declaration canonically for hashing.
func funcSourceString(fd *minic.FuncDecl) string {
	var sb strings.Builder
	sb.WriteString(fd.Return.String())
	sb.WriteByte(' ')
	sb.WriteString(fd.Name)
	sb.WriteByte('(')
	for i, p := range fd.Params {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.Type.String())
		sb.WriteByte(' ')
		sb.WriteString(p.Name)
	}
	sb.WriteByte(')')
	sb.WriteString(minic.StmtStringDeep(fd.Body))
	return sb.String()
}

// summariesActive reports whether this engine resolves calls through the
// summary table. Trace recording and note hooks observe per-statement
// execution of callee bodies, which summary application elides, so both
// force inline mode (mirroring setupWorkers' sequential-order rules).
func (e *Engine) summariesActive() bool {
	return e.opts.Summaries && e.opts.SummaryTable != nil &&
		!e.opts.TrackTrace && e.opts.NoteHook == nil
}

// applySummary tries to resolve a call through the summary table. It
// returns applied=false when the call must inline instead (no summary,
// inline-kind summary, unsafe arguments, depth or budget interactions);
// inlining is always semantically correct, so every bail-out here is safe.
func (e *Engine) applySummary(st *state, fn *ir.Func, args []mem.SVal) (mem.SVal, bool) {
	if !e.summariesActive() {
		return nil, false
	}
	sum := e.opts.SummaryTable.Lookup(fn.Name)
	if sum == nil {
		return nil, false
	}
	switch sum.Kind {
	case SummaryHavoc:
		msg := "summary havoc at " + fn.Name + " (" + sum.Reason + "); result unconstrained"
		if len(sum.Ocalls) > 0 {
			msg += "; skipped reachable OCALL sinks: " + strings.Join(sum.Ocalls, ", ")
		}
		if len(sum.Declassifies) > 0 {
			msg += "; skipped reachable declassify obligations: " + strings.Join(sum.Declassifies, ", ")
		}
		e.warn(st, msg)
		e.markTruncated(TruncSummaryHavoc)
		e.obs.Add("summary.havocs", 1)
		return mem.Scalar{E: e.builder.FreshPublic(fn.Name + "@havoc")}, true
	case SummaryPure:
		ret, ok := e.applyPure(st, fn, sum, args)
		if !ok {
			e.obs.Add("summary.fallbacks", 1)
		}
		return ret, ok
	default:
		// SummaryInline (or unknown): the call site inlines.
		return nil, false
	}
}

// applyPure replays a pure summary at one call site.
func (e *Engine) applyPure(st *state, fn *ir.Func, sum *Summary, args []mem.SVal) (mem.SVal, bool) {
	if len(args) != sum.NumParams || sum.Skeleton == nil {
		return nil, false
	}
	// Inline mode truncates call chains at InlineDepth; a summary must not
	// silently complete a chain inline mode would have cut.
	if len(st.frames)+sum.Depth > e.opts.inlineDepth() {
		return nil, false
	}
	argExprs := make([]sym.Expr, len(args))
	for i, a := range args {
		sc, isScalar := a.(mem.Scalar)
		if !isScalar || !sym.ArgSafe(sc.E) {
			return nil, false
		}
		argExprs[i] = sc.E
	}
	if e.stopFlag.Load() {
		// A stopped exploration must unwind through the normal step path.
		return nil, false
	}
	// Budget crossover: inline mode would spend the callee's steps one by
	// one and truncate mid-body when MaxSteps lands inside the callee. Take
	// the whole step block only if it fits; otherwise roll back and inline,
	// which reproduces the truncation at the identical step.
	newSteps := atomic.AddInt64(&e.steps, sum.Steps)
	if int(newSteps) > e.opts.maxSteps() {
		atomic.AddInt64(&e.steps, -sum.Steps)
		return nil, false
	}
	ret, err := sum.Skeleton.InstantiateIn(e.itn, argExprs)
	if err != nil {
		atomic.AddInt64(&e.steps, -sum.Steps)
		return nil, false
	}
	e.obs.Add("symexec.steps", sum.Steps)
	atomic.AddInt64(&e.replayedSteps, sum.Steps)
	st.cost += int(sum.Cost)
	atomic.AddInt64(&e.states, sum.States)
	e.obs.Add("symexec.states", sum.States)
	atomic.AddInt64(&e.regionPad, sum.Regions)
	e.obs.Add("summary.applied", 1)
	return mem.Scalar{E: ret}, true
}

// Summary codec: a versioned binary record wrapping the skeleton codec.
// decodeSummary never panics; every malformed payload degrades to a
// recompute at the build layer.

const (
	summaryMagic   byte = 0xC5
	summaryVersion byte = 2

	maxSummaryStrings = 1 << 12
	maxSummaryName    = 1 << 12
	maxSummaryParams  = 1 << 12
	maxSummaryPayload = 1 << 26
)

func encodeSummary(s *Summary) []byte {
	buf := []byte{summaryMagic, summaryVersion}
	str := func(v string) {
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	strs := func(v []string) {
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		for _, x := range v {
			str(x)
		}
	}
	str(s.Func)
	buf = append(buf, byte(s.Kind))
	str(s.Reason)
	buf = binary.AppendUvarint(buf, uint64(s.NumParams))
	buf = binary.AppendUvarint(buf, uint64(s.Depth))
	buf = binary.AppendVarint(buf, s.Cost)
	buf = binary.AppendVarint(buf, s.States)
	buf = binary.AppendVarint(buf, s.Steps)
	buf = binary.AppendVarint(buf, s.Regions)
	strs(s.Ocalls)
	strs(s.Declassifies)
	if s.HasAffine {
		buf = append(buf, 1)
		idxs := make([]int, 0, len(s.AffineCoef))
		for i := range s.AffineCoef {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		buf = binary.AppendUvarint(buf, uint64(len(idxs)))
		for _, i := range idxs {
			buf = binary.AppendUvarint(buf, uint64(i))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.AffineCoef[i]))
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.AffineConst))
	} else {
		buf = append(buf, 0)
	}
	if s.Skeleton != nil {
		payload := sym.EncodeSum(s.Skeleton)
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(len(payload)))
		buf = append(buf, payload...)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

var errSummaryCorrupt = errors.New("symexec: corrupt summary payload")

func decodeSummary(data []byte) (*Summary, error) {
	if len(data) < 2 || len(data) > maxSummaryPayload {
		return nil, errSummaryCorrupt
	}
	if data[0] != summaryMagic || data[1] != summaryVersion {
		return nil, errSummaryCorrupt
	}
	off := 2
	u := func() (uint64, error) {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, errSummaryCorrupt
		}
		off += n
		return v, nil
	}
	i := func() (int64, error) {
		v, n := binary.Varint(data[off:])
		if n <= 0 {
			return 0, errSummaryCorrupt
		}
		off += n
		return v, nil
	}
	by := func() (byte, error) {
		if off >= len(data) {
			return 0, errSummaryCorrupt
		}
		b := data[off]
		off++
		return b, nil
	}
	str := func() (string, error) {
		n, err := u()
		if err != nil || n > maxSummaryName || off+int(n) > len(data) {
			return "", errSummaryCorrupt
		}
		s := string(data[off : off+int(n)])
		off += int(n)
		return s, nil
	}
	strs := func() ([]string, error) {
		n, err := u()
		if err != nil || n > maxSummaryStrings {
			return nil, errSummaryCorrupt
		}
		var out []string
		for j := uint64(0); j < n; j++ {
			s, err := str()
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		return out, nil
	}
	f64 := func() (float64, error) {
		if off+8 > len(data) {
			return 0, errSummaryCorrupt
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		return v, nil
	}

	s := &Summary{}
	var err error
	if s.Func, err = str(); err != nil {
		return nil, err
	}
	kb, err := by()
	if err != nil {
		return nil, err
	}
	s.Kind = SummaryKind(kb)
	if s.Kind < SummaryPure || s.Kind > SummaryHavoc {
		return nil, errSummaryCorrupt
	}
	if s.Reason, err = str(); err != nil {
		return nil, err
	}
	np, err := u()
	if err != nil || np > maxSummaryParams {
		return nil, errSummaryCorrupt
	}
	s.NumParams = int(np)
	dep, err := u()
	if err != nil || dep > maxSummaryParams {
		return nil, errSummaryCorrupt
	}
	s.Depth = int(dep)
	if s.Cost, err = i(); err != nil {
		return nil, err
	}
	if s.States, err = i(); err != nil {
		return nil, err
	}
	if s.Steps, err = i(); err != nil {
		return nil, err
	}
	if s.Regions, err = i(); err != nil {
		return nil, err
	}
	if s.Cost < 0 || s.States < 0 || s.Steps < 0 || s.Regions < 0 {
		return nil, errSummaryCorrupt
	}
	if s.Ocalls, err = strs(); err != nil {
		return nil, err
	}
	if s.Declassifies, err = strs(); err != nil {
		return nil, err
	}
	afl, err := by()
	if err != nil {
		return nil, err
	}
	switch afl {
	case 1:
		s.HasAffine = true
		n, err := u()
		if err != nil || n > maxSummaryParams {
			return nil, errSummaryCorrupt
		}
		s.AffineCoef = make(map[int]float64, n)
		for j := uint64(0); j < n; j++ {
			idx, err := u()
			if err != nil || idx > maxSummaryParams {
				return nil, errSummaryCorrupt
			}
			c, err := f64()
			if err != nil {
				return nil, err
			}
			s.AffineCoef[int(idx)] = c
		}
		if s.AffineConst, err = f64(); err != nil {
			return nil, err
		}
	case 0:
	default:
		return nil, errSummaryCorrupt
	}
	skl, err := by()
	if err != nil {
		return nil, err
	}
	switch skl {
	case 1:
		n, err := u()
		if err != nil || n > uint64(len(data)-off) {
			return nil, errSummaryCorrupt
		}
		skel, serr := sym.DecodeSum(data[off : off+int(n)])
		if serr != nil {
			return nil, errSummaryCorrupt
		}
		off += int(n)
		s.Skeleton = skel
	case 0:
	default:
		return nil, errSummaryCorrupt
	}
	if off != len(data) {
		return nil, errSummaryCorrupt
	}
	if s.Kind == SummaryPure && s.Skeleton == nil {
		return nil, errSummaryCorrupt
	}
	return s, nil
}
