package symexec

import (
	"context"
	"fmt"

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
// Summaries are exact: with a table, every finding, verdict, warning and
// coverage counter matches what table-free exploration (plain inlining)
// produces on the same program. Two summary kinds make that hold by
// construction:
//
//   - SummaryPure: the callee is statically side-effect-free (scalar integer
//     params and locals, no globals, no pointers, only pure callees) and a
//     scratch symbolic run completed on exactly one path with no warnings,
//     no conjured state and an empty path condition. Its return value,
//     abstracted over parameter slots, is replayed at call sites by
//     substituting the actual arguments through the same folding
//     constructors — producing the identical expression inlining would have,
//     at O(skeleton) cost instead of O(body × paths). The summary also
//     replays the callee's step/state/cost/region accounting so budgets and
//     coverage counters cross over at exactly the same point as inlining.
//   - SummaryInline: anything else, including recursive components and
//     callees whose scratch run passes scratchStepBound. Call sites inline
//     exactly as table-free exploration does.
//
// The table is built in one linear bottom-up pass: each scratch run resolves
// its own calls through the table built so far, so a helper's body runs
// once, not once per transitive caller. The build stays exact because
// pureShape only admits calls to callees already classified pure, and
// applyPure replays their full accounting and rolls back to inlining at the
// MaxSteps and inline-depth crossovers — each scratch run ends exactly as it
// would have inlining them.
//
// Sparse mode falls out of the classification: an untainted helper's
// skeleton is small (often a constant after folding), so helpers that never
// touch secrets collapse to cheap no-op applications.

// scratchStepBound bounds one scratch summary run's steps; a callee that
// needs more is classified SummaryInline.
const scratchStepBound = 50_000

// SummaryKind classifies a function summary.
type SummaryKind uint8

// Summary kinds.
const (
	// SummaryPure replays an abstracted return value at call sites.
	SummaryPure SummaryKind = iota + 1
	// SummaryInline makes call sites inline the callee (everything outside
	// the pure fragment).
	SummaryInline
)

func (k SummaryKind) String() string {
	switch k {
	case SummaryPure:
		return "pure"
	case SummaryInline:
		return "inline"
	}
	return "?"
}

// Summary is one function's reusable analysis result.
type Summary struct {
	// Func is the summarized function's name.
	Func string
	// Kind selects the application strategy.
	Kind SummaryKind
	// Reason says why Kind is not SummaryPure (diagnostics).
	Reason string
	// NumParams is the callee's declared parameter count.
	NumParams int
	// Depth is the maximum inline-frame depth the callee's own call chain
	// needs. A pure summary only applies when the caller's frame depth plus
	// Depth stays within InlineDepth — past that, inlining would have
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

// builtinNames are the engine's natively-modeled calls; a pure function may
// not call any of them (their models conjure symbols, touch memory, or have
// entropy semantics a skeleton cannot replay).
var builtinNames = map[string]bool{
	"memcpy": true, "memset": true, "rand": true, "sgx_read_rand": true,
	"srand": true, "free": true, "malloc": true,
}

// BuildSummaryTable computes a summary for every defined function of prog
// that appears as a call target, bottom-up in SCC order (callees before
// callers; recursive components inline without a scratch run). Scratch runs
// honor ctx: a cancelled run leaves its function SummaryInline, which is
// always exact. ob receives the summary.* counters and the summary/build
// span. The table is read-only after construction.
func BuildSummaryTable(ctx context.Context, prog *ir.Program, opts Options, ob obs.Observer) *SummaryTable {
	ob = obs.Or(ob)
	span := ob.StartSpan("summary/build")
	defer span.End()

	b := &tableBuilder{
		ctx:   ctx,
		opts:  opts,
		ob:    ob,
		table: &SummaryTable{funcs: make(map[string]*Summary)},
	}
	// The scratch program shares prog's lowered functions but drops the
	// globals: a pure function cannot reference them (the shape check
	// rejects global identifiers), and leaving them out keeps the scratch
	// engine's region count equal to the per-call region delta an inline
	// execution would produce.
	b.scratchProg = &ir.Program{Funcs: prog.Funcs}
	if prog.Module != nil {
		scratchFile := *prog.Module
		scratchFile.Globals = nil
		b.scratchProg.Module = &scratchFile
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
			b.table.funcs[name] = b.compute(prog.Funcs[name], scc.Recursive)
			b.ob.Add("summary.computed", 1)
		}
	}
	span.Annotate(obs.F("functions", fmt.Sprint(len(b.table.funcs))))
	return b.table
}

type tableBuilder struct {
	ctx         context.Context
	scratchProg *ir.Program
	opts        Options
	ob          obs.Observer
	table       *SummaryTable
}

// compute classifies one function.
func (b *tableBuilder) compute(fn *ir.Func, recursive bool) *Summary {
	s := &Summary{
		Func:      fn.Name,
		Kind:      SummaryInline,
		NumParams: len(fn.Params),
	}
	if recursive {
		s.Reason = "recursive"
		return s
	}
	if ok, reason := b.pureShape(fn); !ok {
		s.Reason = reason
		return s
	}
	return b.scratchRun(fn, s)
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
		if v.Decl != nil && v.Decl.Global {
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
		if b.opts.OCallFuncs[v.Fun] || isIntrinsic(b.opts, v.Fun) || builtinNames[v.Fun] || b.opts.InitFuncs[v.Fun] {
			return false, "calls modeled builtin, sink or lifecycle gate " + v.Fun
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
		s.Reason = reason
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
	sopts.MaxPaths = 2 // one is expected; two detects a fork cheaply
	sopts.MaxSteps = scratchStepBound
	// Pure callees are already in the table: the run replays them instead
	// of re-inlining, with the accounting inlining would produce.
	sopts.SummaryTable = b.table

	eng := NewIR(b.scratchProg, sopts)
	res, err := eng.AnalyzeFunction(b.ctx, fn.Name, params)
	if err != nil {
		return inline("scratch run failed: " + err.Error())
	}
	b.ob.Add("summary.steps.executed", int64(res.Coverage.StepsUsed)-eng.replayedSteps)
	if res.Coverage.Truncated {
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
		s.AffineCoef = make(map[int]float64, len(a.Terms()))
		for _, t := range a.Terms() {
			s.AffineCoef[paramOf[t.Sym.ID]] = t.Coef
		}
	}
	return s
}

// summariesActive reports whether this engine resolves calls through the
// summary table. Trace recording and note hooks observe per-statement
// execution of callee bodies, which summary application elides, so both
// force inlining.
func (e *Engine) summariesActive() bool {
	return e.opts.SummaryTable != nil && !e.opts.TrackTrace && e.opts.NoteHook == nil
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
	if sum == nil || sum.Kind != SummaryPure {
		return nil, false
	}
	ret, ok := e.applyPure(st, fn, sum, args)
	if !ok {
		e.obs.Add("summary.fallbacks", 1)
	}
	return ret, ok
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
		sc, isScalar := a.(sym.Expr)
		if !isScalar || !sym.ArgSafe(sc) {
			return nil, false
		}
		argExprs[i] = sc
	}
	if e.stopped {
		// A stopped exploration must unwind through the normal step path.
		return nil, false
	}
	// Budget crossover: inline mode would spend the callee's steps one by
	// one and truncate mid-body when MaxSteps lands inside the callee. Take
	// the whole step block only if it fits; otherwise roll back and inline,
	// which reproduces the truncation at the identical step.
	if int(e.steps+sum.Steps) > e.opts.maxSteps() {
		return nil, false
	}
	ret, err := sum.Skeleton.InstantiateIn(e.itn, argExprs)
	if err != nil {
		return nil, false
	}
	e.steps += sum.Steps
	e.replayedSteps += sum.Steps
	st.cost += int(sum.Cost)
	e.states += sum.States
	e.regionPad += sum.Regions
	e.obs.Add("summary.applied", 1)
	return ret, true
}
