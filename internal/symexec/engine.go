package symexec

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"privacyscope/internal/ir"
	"privacyscope/internal/mem"
	"privacyscope/internal/minic"
	"privacyscope/internal/obs"
	"privacyscope/internal/solver"
	"privacyscope/internal/sym"
	"privacyscope/internal/taint"
)

// Engine errors.
var (
	ErrNoSuchFunc = errors.New("symexec: no such function")
)

// ctxCheckInterval is how many steps may pass between cooperative
// context checks: a cancelled or expired context stops the exploration
// within this many statement evaluations.
const ctxCheckInterval = 32

// Engine symbolically executes analysis-IR functions (lowered from MiniC or
// PRIML — see internal/ir). Create one per analysis run: a run explores its
// paths depth-first on the calling goroutine, and the engine (with its
// arena, region manager, builder and solver) must not be shared across
// goroutines.
type Engine struct {
	prog    *ir.Program
	opts    Options
	mgr     *mem.Manager
	builder *sym.Builder
	sv      *solver.Solver
	itn     *sym.Interner // hash-consing arena
	// intern.* counter values already flushed to obs (see AnalyzeFunction).
	internHits, internMisses int64

	// The per-region tables below key on region identity (the manager
	// hash-conses regions).
	//
	// inputSyms memoizes conjured input values per region so every path
	// sees the same symbol for the same memory.
	inputSyms map[mem.Region]mem.SVal
	// secretRoots marks region roots whose unbound elements must conjure
	// *secret* symbols (SymRegions of [in] params and re-symbolized
	// decrypt destinations).
	secretRoots map[mem.Region]bool
	// rootDisplay maps region roots to source-level display names.
	rootDisplay map[mem.Region]string
	// outRoots maps [out]-parameter roots to parameter names. Written only
	// while binding entry parameters, read-only during exploration.
	outRoots map[mem.Region]string
	// globals holds each global's region by VarDecl.Slot, minted on first
	// use.
	globals []*mem.VarRegion

	steps  int64
	states int64
	pruned int64
	// replayedSteps is the part of steps that pure summary applications
	// charged without executing (applyPure).
	replayedSteps int64
	// regionPad counts the memory regions summarized-away callee bodies
	// would have allocated, so Result.Regions matches inline mode.
	regionPad int64
	res       *Result
	env       *mem.Env
	obs       obs.Observer

	// warned holds the messages already in res.Warnings (see warn).
	warned map[string]bool

	// ctx is the run's cancellation context; trunc records why the
	// exploration stopped early (TruncNone while it is still exhaustive),
	// and stopped is set once a budget, deadline or cancellation ends it.
	ctx     context.Context
	trunc   TruncReason
	stopped bool
}

// New returns an engine over the MiniC file, lowering it to the analysis IR
// internally.
func New(file *minic.File, opts Options) *Engine {
	return NewIR(ir.LowerMiniC(file), opts)
}

// NewIR returns an engine over an already-lowered program. Front ends other
// than MiniC (the PRIML adapter) lower themselves and enter here.
func NewIR(prog *ir.Program, opts Options) *Engine {
	var alloc taint.Allocator
	o := obs.Or(opts.Obs)
	itn := sym.NewInterner()
	sv := solver.NewObserved(o)
	sv.SetInterner(itn)
	var globals []*mem.VarRegion
	if prog.Module != nil {
		globals = make([]*mem.VarRegion, len(prog.Module.Globals))
	}
	return &Engine{
		prog:        prog,
		opts:        opts,
		mgr:         mem.NewManager(),
		builder:     sym.NewBuilder(&alloc),
		sv:          sv,
		itn:         itn,
		inputSyms:   make(map[mem.Region]mem.SVal),
		secretRoots: make(map[mem.Region]bool),
		rootDisplay: make(map[mem.Region]string),
		outRoots:    make(map[mem.Region]string),
		globals:     globals,
		env:         mem.NewEnv(),
		obs:         o,
	}
}

// Builder exposes the engine's symbol builder (the checker needs it for
// witness models).
func (e *Engine) Builder() *sym.Builder { return e.builder }

// AnalyzeFunction explores every path of the named entry point under the
// given parameter classification. Exploration is fail-soft: when the path
// or step budget is exhausted, or ctx is cancelled or reaches its deadline,
// the engine stops and returns the paths completed so far with
// Result.Coverage recording the truncation — not an error. Errors are
// reserved for analysis failures (unknown entry point, semantic errors).
func (e *Engine) AnalyzeFunction(ctx context.Context, name string, params []ParamSpec) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.ctx = ctx
	fn, ok := e.prog.Func(name)
	if !ok || fn.Body == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchFunc, name)
	}
	classes := make(map[string]ParamClass, len(params))
	for _, p := range params {
		classes[p.Name] = p.Class
	}

	e.res = &Result{
		Function:      name,
		Builder:       e.builder,
		SecretSymbols: make(map[string]*sym.Symbol),
	}
	e.warned = make(map[string]bool)
	if e.opts.TrackTrace {
		e.res.Trace = NewTrace()
	}

	st := &state{
		pc:    solver.True(),
		store: e.mgr.NewStore(),
	}
	// Seed globals with constant initializers; globals with dynamic or
	// absent initializers stay symbolic (conjured on first read).
	if e.prog.Module != nil {
		for _, g := range e.prog.Module.Globals {
			if c, ok := constInit(g.Init); ok {
				st.store.Bind(e.global(g), coerceSVal(mem.Scalar{E: c}, g.Type))
			}
		}
	}
	fr := e.pushFrame(st, fn)
	for _, p := range fn.Params {
		cls, ok := classes[p.Name]
		if !ok {
			cls = ParamPublic
		}
		if err := e.bindParam(st, e.param(fr, p), p, cls); err != nil {
			return nil, err
		}
	}
	e.snapshot(st, "entry "+name)

	err := e.execBlock(st, fn.Body, func(end *state, c ctl) error {
		ret := c.ret
		if c.kind != ctlReturn {
			ret = nil
		}
		return e.completePath(end, ret, c.retPos)
	})
	if err != nil && !errors.Is(err, errStopExploration) {
		return nil, err
	}
	if e.trunc != TruncNone {
		msg := "exploration truncated: " + string(e.trunc)
		e.res.Warnings = append(e.res.Warnings, msg)
		e.obs.Event("symexec.warning", obs.F("msg", msg))
	}
	incomplete := 0
	for _, p := range e.res.Paths {
		if p.Incomplete {
			incomplete++
		}
	}
	e.res.States = int(e.states)
	e.res.Coverage = Coverage{
		CompletedPaths:  len(e.res.Paths),
		IncompletePaths: incomplete,
		PrunedPaths:     int(e.pruned),
		StepsUsed:       int(e.steps),
		Truncated:       e.trunc != TruncNone,
		Reason:          e.trunc,
	}
	e.res.Regions = e.mgr.RegionCount() + int(e.regionPad)
	if e.res.Trace != nil {
		e.res.TraceTruncated = e.res.Trace.Dropped()
	}
	if e.summariesActive() {
		e.obs.Add("summary.steps.executed", e.steps-e.replayedSteps)
	}
	// Flush arena deltas so a (hypothetical) second AnalyzeFunction on the
	// same engine never double-counts.
	h, m, sz := e.itn.Stats()
	e.obs.Add("intern.hits", h-e.internHits)
	e.obs.Add("intern.misses", m-e.internMisses)
	e.internHits, e.internMisses = h, m
	e.obs.Observe("intern.size", sz)
	e.obs.Event("symexec.done",
		obs.F("function", name),
		obs.F("paths", fmt.Sprint(len(e.res.Paths))),
		obs.F("states", fmt.Sprint(e.res.States)),
		obs.F("truncated", string(e.trunc)))
	return e.res, nil
}

// bindParam sets up one entry parameter, whose region is reg, per its EDL
// class.
func (e *Engine) bindParam(st *state, reg *mem.VarRegion, p *minic.VarDecl, cls ParamClass) error {
	e.bindEnv(p.Name, reg)

	if _, isPtr := p.Type.(minic.Pointer); isPtr {
		secret := cls == ParamSecret || cls == ParamInOut
		pointee := e.builder.FreshPublic(p.Name + "_blk")
		blk := e.mgr.SymBlock(pointee, p.Name, secret)
		e.rootDisplay[blk] = p.Name
		if secret {
			e.secretRoots[blk] = true
		}
		if cls == ParamOut || cls == ParamInOut {
			e.outRoots[blk] = p.Name
		}
		st.store.Bind(reg, mem.Loc{R: blk})
		return nil
	}
	// Scalar parameter.
	var val sym.Expr
	if cls == ParamSecret || cls == ParamInOut {
		s := e.builder.FreshSecret(p.Name)
		e.res.SecretSymbols[p.Name] = s
		val = s
	} else {
		val = e.builder.FreshPublic(p.Name)
	}
	st.store.Bind(reg, mem.Scalar{E: val})
	return nil
}

// completePath records one finished path's observable outcome.
func (e *Engine) completePath(st *state, ret sym.Expr, retPos minic.Pos) error {
	if len(e.res.Paths) >= e.opts.maxPaths() {
		e.obs.Add("symexec.truncations.max_paths", 1)
		return e.stop(TruncPathBudget)
	}
	e.obs.Add("symexec.paths.completed", 1)
	if st.incomplete {
		e.obs.Add("symexec.paths.incomplete", 1)
	}
	e.obs.Observe("symexec.path.depth", int64(st.pc.Len()))
	e.obs.Observe("symexec.path.cost", int64(st.cost))
	pr := &PathResult{
		PC:             st.pc,
		Return:         ret,
		ReturnPos:      retPos,
		Ocalls:         st.ocalls,
		Incomplete:     st.incomplete,
		Cost:           st.cost,
		Inits:          st.inits,
		SecretBranches: st.branches,
		SecretAccesses: st.accesses,
	}
	isOut := func(root mem.Region) bool {
		_, ok := e.outRoots[root]
		return ok
	}
	for _, b := range st.store.BindingsUnder(isOut) {
		sc, isScalar := b.Val.(mem.Scalar)
		if !isScalar {
			continue
		}
		pr.Outs = append(pr.Outs, OutWrite{
			Param:   e.outRoots[mem.Root(b.Region)],
			Region:  b.Region,
			Display: e.displayName(b.Region),
			Value:   sc.E,
		})
	}
	e.res.Paths = append(e.res.Paths, pr)
	e.snapshot(st, "path end")
	return nil
}

// state is one exploded node: π, σ, call stack and per-path observations.
type state struct {
	pc         *solver.PathCondition
	store      *mem.Store
	frames     []frame
	ocalls     []SinkEvent
	incomplete bool
	// inits, branches and accesses are the per-path detector-pack event
	// logs (empty unless the corresponding Options gate is on); evSeq is
	// the shared ocall/init sequence counter.
	inits    []LifecycleEvent
	branches []BranchEvent
	accesses []AccessEvent
	evSeq    int
	// cost counts executed statements (the abstract time model).
	cost int
	// inCallExpr > 0 while the state runs the body of an expression-position
	// call: inlineCall restores the state after exploring the callee, so
	// fork must not hand the state itself to an arm.
	inCallExpr int
}

// clone forks the state. The store is shared copy-on-write and the frames
// themselves are shared (a frame slot's region is the same on every path);
// only the stack of them is copied. The event logs are shared with their
// capacity clipped, so an append by either state reallocates instead of
// writing into the other's backing array (logged events are never modified
// in place).
func (st *state) clone() *state {
	return &state{
		pc:         st.pc,
		store:      st.store.Clone(),
		frames:     slices.Clone(st.frames),
		ocalls:     st.ocalls[:len(st.ocalls):len(st.ocalls)],
		incomplete: st.incomplete,
		inits:      st.inits[:len(st.inits):len(st.inits)],
		branches:   st.branches[:len(st.branches):len(st.branches)],
		accesses:   st.accesses[:len(st.accesses):len(st.accesses)],
		evSeq:      st.evSeq,
		cost:       st.cost,
		inCallExpr: st.inCallExpr,
	}
}

// fork returns the states for the arms of a fork, each with its path
// condition extended by its own conjunct. All arms but the last are clones;
// the last takes over st itself, which no one reads once the fork has
// handed out its arms — except inside an expression-position call
// (inCallExpr > 0), where inlineCall restores st after exploring the
// callee, so there every arm is a clone.
func (st *state) fork(conds ...sym.Expr) []*state {
	arms := make([]*state, len(conds))
	for i, c := range conds {
		arm := st
		if i < len(conds)-1 || st.inCallExpr > 0 {
			arm = st.clone()
		}
		arm.pc = arm.pc.And(c)
		arms[i] = arm
	}
	return arms
}

func (st *state) frame() frame { return st.frames[len(st.frames)-1] }

// frame is one call frame: the region of each param and local, indexed by
// VarDecl.Slot (see minic.Resolve). A slot's region is minted the first
// time any path declares the variable and is then shared by every state
// forked from the frame: the region a slot denotes does not depend on the
// path, so forks copy nothing.
type frame []*mem.VarRegion

// pushFrame enters fn with an empty frame.
func (e *Engine) pushFrame(st *state, fn *ir.Func) frame {
	fr := make(frame, fn.Slots)
	st.frames = append(st.frames, fr)
	return fr
}

// param returns the region of fn's param p in frame fr, minting it on the
// first binding (duplicate param names share a slot, hence the check).
// Params have no display name of their own: their region is shown as is.
func (e *Engine) param(fr frame, p *minic.VarDecl) *mem.VarRegion {
	if fr[p.Slot] == nil {
		fr[p.Slot] = e.mgr.Var(p.Name)
	}
	return fr[p.Slot]
}

// local returns the region of the local d in frame fr, minting it on the
// frame's first declaration of d's slot.
func (e *Engine) local(fr frame, d *minic.VarDecl) *mem.VarRegion {
	r := fr[d.Slot]
	if r == nil {
		r = e.mgr.Var(d.Name)
		fr[d.Slot] = r
		e.rootDisplay[r] = d.Name
	}
	return r
}

// global returns the region of the global g, minting it on first use.
func (e *Engine) global(g *minic.VarDecl) *mem.VarRegion {
	r := e.globals[g.Slot]
	if r == nil {
		r = e.mgr.Var(g.Name)
		e.globals[g.Slot] = r
		e.rootDisplay[r] = g.Name
	}
	return r
}

type ctlKind int

const (
	ctlNext ctlKind = iota
	ctlReturn
	ctlBreak
	ctlContinue
)

type ctl struct {
	kind   ctlKind
	ret    sym.Expr
	retPos minic.Pos
}

var ctlFallthrough = ctl{}

// cont is the continuation invoked with the state after a statement.
type cont func(*state, ctl) error

func (e *Engine) step() error {
	if e.stopped {
		return errStopExploration
	}
	e.steps++
	e.obs.Add("symexec.steps", 1)
	if int(e.steps) > e.opts.maxSteps() {
		e.obs.Add("symexec.truncations.max_steps", 1)
		return e.stop(TruncStepBudget)
	}
	if e.steps%ctxCheckInterval == 0 {
		if err := e.ctx.Err(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				e.obs.Add("symexec.truncations.deadline", 1)
				return e.stop(TruncDeadline)
			}
			e.obs.Add("symexec.truncations.cancelled", 1)
			return e.stop(TruncCancelled)
		}
	}
	return nil
}

func (e *Engine) execBlock(st *state, b *ir.BlockOp, k cont) error {
	return e.execSeq(st, b.Ops, k)
}

func (e *Engine) execSeq(st *state, ops []ir.Op, k cont) error {
	if len(ops) == 0 {
		return k(st, ctlFallthrough)
	}
	return e.exec(st, ops[0], func(next *state, c ctl) error {
		if c.kind != ctlNext {
			return k(next, c)
		}
		return e.execSeq(next, ops[1:], k)
	})
}

func (e *Engine) exec(st *state, op ir.Op, k cont) error {
	// Notes are front-end markers, not statements: no step, no cost, no
	// snapshot — the hook observes state, it does not advance it.
	if n, isNote := op.(*ir.NoteOp); isNote {
		if e.opts.NoteHook != nil {
			e.opts.NoteHook(StateView{e: e, st: st}, n.Data)
		}
		return k(st, ctlFallthrough)
	}
	if err := e.step(); err != nil {
		return err
	}
	st.cost++
	e.snapshot(st, op.Display())
	switch v := op.(type) {
	case *ir.BlockOp:
		return e.execBlock(st, v, k)
	case *ir.EmptyOp:
		return k(st, ctlFallthrough)
	case *ir.DeclOp:
		fr := st.frame()
		for _, d := range v.Decls {
			reg := e.local(fr, d)
			e.bindEnv(d.Name, reg)
			if d.Init != nil {
				val, _, err := e.eval(st, d.Init)
				if err != nil {
					return err
				}
				st.store.Bind(reg, coerceSVal(val, d.Type))
			}
		}
		return k(st, ctlFallthrough)
	case *ir.ExprOp:
		// A bare call to a user function in statement position is
		// executed with full path sensitivity: forks inside the callee
		// propagate to the caller's continuation. (Calls in expression
		// position fall back to inlineCall's first-path approximation.)
		if call, ok := v.X.(*minic.CallExpr); ok {
			if fn, defined := e.prog.Func(call.Fun); defined && fn.Body != nil &&
				!e.opts.OCallFuncs[call.Fun] && !isIntrinsic(e.opts, call.Fun) {
				return e.execCallStmt(st, fn, call, k)
			}
		}
		if _, _, err := e.eval(st, v.X); err != nil {
			return err
		}
		return k(st, ctlFallthrough)
	case *ir.IfOp:
		return e.execIf(st, v, k)
	case *ir.LoopOp:
		if v.PostTest {
			// do S while (c) ≡ S; while (c) S — with break in the first
			// S exiting the loop.
			return e.exec(st, v.Body, func(next *state, c ctl) error {
				switch c.kind {
				case ctlReturn:
					return k(next, c)
				case ctlBreak:
					return k(next, ctlFallthrough)
				}
				return e.execLoop(next, v.Position(), v.Cond, nil, v.Body, k)
			})
		}
		if v.Init != nil {
			return e.exec(st, v.Init, func(next *state, c ctl) error {
				if c.kind != ctlNext {
					return k(next, c)
				}
				return e.execLoop(next, v.Position(), v.Cond, v.Post, v.Body, k)
			})
		}
		return e.execLoop(st, v.Position(), v.Cond, v.Post, v.Body, k)
	case *ir.SwitchOp:
		return e.execSwitch(st, v, k)
	case *ir.ReturnOp:
		var ret sym.Expr
		if v.X != nil {
			val, _, err := e.eval(st, v.X)
			if err != nil {
				return err
			}
			ret = scalarOf(val)
		}
		return k(st, ctl{kind: ctlReturn, ret: ret, retPos: v.Pos})
	case *ir.BreakOp:
		return k(st, ctl{kind: ctlBreak})
	case *ir.ContinueOp:
		return k(st, ctl{kind: ctlContinue})
	}
	return fmt.Errorf("symexec: unknown op %T", op)
}

// noteBranch records a fork on a secret-tainted condition on the parent
// state, *before* cloning, so both successors carry the event: the branch
// outcome is observable in the access trace whichever way it goes. Gated on
// RecordSecretAccess; no-op (and allocation-free) otherwise.
func (e *Engine) noteBranch(st *state, pos minic.Pos, cond sym.Expr) {
	if !e.opts.RecordSecretAccess {
		return
	}
	if sym.TaintOf(cond).IsBottom() {
		return
	}
	st.branches = append(st.branches, BranchEvent{Pos: pos, Cond: cond})
	e.obs.Add("symexec.events.secret_branches", 1)
}

func (e *Engine) execIf(st *state, v *ir.IfOp, k cont) error {
	condVal, _, err := e.eval(st, v.Cond)
	if err != nil {
		return err
	}
	cond := e.itn.Truth(scalarOf(condVal))
	if c, ok := cond.(sym.IntConst); ok {
		if c.V != 0 {
			return e.exec(st, v.Then, k)
		}
		if v.Else != nil {
			return e.exec(st, v.Else, k)
		}
		return k(st, ctlFallthrough)
	}
	// Fork (PS-TCOND / PS-FCOND).
	e.noteBranch(st, v.Position(), cond)
	e.obs.Add("symexec.forks", 1)
	// A faint join's arms are straight-line writes to faint locals, so each
	// feasible arm reaches its end exactly once; the arms park their end
	// states in ends and the join continues after both have run.
	pc0 := st.pc
	var ends *[2]*state
	if v.FaintJoin {
		ends = new([2]*state)
	}
	arm := func(i int, s *state, body ir.Op) error {
		if !e.feasible(s.pc) {
			return nil
		}
		next := k
		if ends != nil {
			next = func(end *state, _ ctl) error {
				ends[i] = end
				return nil
			}
		}
		if body == nil {
			return next(s, ctlFallthrough)
		}
		return e.exec(s, body, next)
	}
	arms := st.fork(cond, e.itn.Negate(cond))
	if err := arm(0, arms[0], v.Then); err != nil {
		return err
	}
	if err := arm(1, arms[1], v.Else); err != nil || ends == nil {
		return err
	}
	// Both arms ran: they differ only in faint locals and cost the same, so
	// one continuation under π₀ = (π₀∧c) ∨ (π₀∧¬c) observes exactly what
	// the two would have.
	end := ends[0]
	switch {
	case ends[0] != nil && ends[1] != nil:
		e.obs.Add("symexec.merges", 1)
		end.pc = pc0
	case ends[0] == nil:
		end = ends[1]
	}
	if end == nil {
		return nil
	}
	return k(end, ctlFallthrough)
}

func (e *Engine) feasible(pc *solver.PathCondition) bool {
	if !e.opts.PruneInfeasible {
		return true
	}
	ok := e.sv.Feasible(pc)
	if !ok {
		e.pruned++
		e.obs.Add("symexec.paths.pruned", 1)
	}
	return ok
}

// execLoop handles while (post == nil) and for loops. Concrete conditions
// iterate without forking (bounded by the step budget); symbolic conditions
// fork per iteration up to LoopBound.
func (e *Engine) execLoop(st *state, pos minic.Pos, cond minic.Expr, post minic.Expr, body ir.Op, k cont) error {
	var iter func(cur *state, remaining int) error

	afterBody := func(next *state, c ctl, remaining int) error {
		switch c.kind {
		case ctlReturn:
			return k(next, c)
		case ctlBreak:
			return k(next, ctlFallthrough)
		}
		// ctlNext or ctlContinue: run post then loop.
		if post != nil {
			if _, _, err := e.eval(next, post); err != nil {
				return err
			}
		}
		return iter(next, remaining)
	}

	iter = func(cur *state, remaining int) error {
		if err := e.step(); err != nil {
			return err
		}
		if cond == nil {
			// for(;;): only break/return exits; bound it.
			if remaining <= 0 {
				cur.incomplete = true
				e.obs.Add("symexec.loop.bound_hits", 1)
				e.warn("infinite loop cut at bound")
				return k(cur, ctlFallthrough)
			}
			return e.exec(cur, body, func(next *state, c ctl) error {
				return afterBody(next, c, remaining-1)
			})
		}
		condVal, _, err := e.eval(cur, cond)
		if err != nil {
			return err
		}
		truth := e.itn.Truth(scalarOf(condVal))
		if c, ok := truth.(sym.IntConst); ok {
			if c.V == 0 {
				return k(cur, ctlFallthrough)
			}
			return e.exec(cur, body, func(next *state, cc ctl) error {
				return afterBody(next, cc, remaining)
			})
		}
		// Symbolic condition: fork enter/exit.
		if remaining <= 0 {
			// Bound hit: assume exit, mark incomplete.
			cur.incomplete = true
			cur.pc = cur.pc.And(e.itn.Negate(truth))
			e.obs.Add("symexec.loop.bound_hits", 1)
			e.warn("symbolic loop cut at bound " + fmt.Sprint(e.opts.loopBound()))
			return k(cur, ctlFallthrough)
		}
		e.noteBranch(cur, pos, truth)
		e.obs.Add("symexec.forks", 1)
		arms := cur.fork(truth, e.itn.Negate(truth))
		if e.feasible(arms[0].pc) {
			err := e.exec(arms[0], body, func(next *state, cc ctl) error {
				return afterBody(next, cc, remaining-1)
			})
			if err != nil {
				return err
			}
		}
		if !e.feasible(arms[1].pc) {
			return nil
		}
		return k(arms[1], ctlFallthrough)
	}
	return iter(st, e.opts.loopBound())
}

// warn records a soft diagnostic in Result.Warnings, once per message, in
// first-emission order.
func (e *Engine) warn(msg string) {
	if e.warned[msg] {
		return
	}
	e.warned[msg] = true
	e.res.Warnings = append(e.res.Warnings, msg)
	e.obs.Event("symexec.warning", obs.F("msg", msg))
}

// warnAt records msg like warn, but at index at of Result.Warnings, moving
// a copy logged past at back to it.
func (e *Engine) warnAt(at int, msg string) {
	e.warn(msg)
	w := e.res.Warnings
	if i := slices.Index(w, msg); i > at {
		copy(w[at+1:i+1], w[at:i])
		w[at] = msg
	}
}

// scalarOf extracts a scalar expression from an SVal; locations degrade to
// an opaque non-secret constant (pointer values are not secrets).
func scalarOf(v mem.SVal) sym.Expr {
	switch s := v.(type) {
	case mem.Scalar:
		return s.E
	default:
		return sym.IntConst{V: 1}
	}
}

// coerceSVal applies C narrowing when the declared type is integral and the
// value folded to a float constant.
func coerceSVal(v mem.SVal, ty minic.Type) mem.SVal {
	sc, ok := v.(mem.Scalar)
	if !ok {
		return v
	}
	if b, isBasic := ty.(minic.Basic); isBasic && b.IsInteger() {
		if f, isF := sc.E.(sym.FloatConst); isF {
			return mem.Scalar{E: sym.IntConst{V: int32(f.V)}}
		}
	}
	return v
}

// constInit folds a literal (optionally negated) global initializer.
func constInit(e minic.Expr) (sym.Expr, bool) {
	switch v := e.(type) {
	case *minic.IntLitExpr:
		return sym.IntConst{V: int32(v.V)}, true
	case *minic.FloatLitExpr:
		return sym.FloatConst{V: v.V}, true
	case *minic.UnExpr:
		if v.Op != sym.OpNeg {
			return nil, false
		}
		inner, ok := constInit(v.X)
		if !ok {
			return nil, false
		}
		return sym.NewUnary(sym.OpNeg, inner), true
	default:
		return nil, false
	}
}

// execSwitch symbolically executes a C switch. A concrete tag with concrete
// case values selects the entry statically; a symbolic tag forks one state
// per case (with the preceding cases excluded from π) plus a default state.
// Fallthrough is honored: from the entry case, statements of all later
// cases run until a break.
func (e *Engine) execSwitch(st *state, v *ir.SwitchOp, k cont) error {
	tagVal, _, err := e.eval(st, v.Tag)
	if err != nil {
		return err
	}
	tag := scalarOf(tagVal)

	// runFrom executes case bodies from entry onward with switch-scoped
	// break handling.
	runFrom := func(cur *state, entry int, kk cont) error {
		var ops []ir.Op
		for i := entry; i < len(v.Cases); i++ {
			ops = append(ops, v.Cases[i].Body...)
		}
		return e.execSeq(cur, ops, func(end *state, c ctl) error {
			if c.kind == ctlBreak {
				return kk(end, ctlFallthrough)
			}
			return kk(end, c)
		})
	}

	// Evaluate case values (side-effect-free constants in C).
	caseVals := make([]sym.Expr, len(v.Cases))
	defaultIdx := -1
	for i, c := range v.Cases {
		if c.IsDefault {
			defaultIdx = i
			continue
		}
		cv, _, err := e.eval(st, c.Value)
		if err != nil {
			return err
		}
		caseVals[i] = scalarOf(cv)
	}

	if tc, concrete := tag.(sym.IntConst); concrete {
		allConcrete := true
		entry := -1
		for i, c := range v.Cases {
			if c.IsDefault {
				continue
			}
			cc, ok := caseVals[i].(sym.IntConst)
			if !ok {
				allConcrete = false
				break
			}
			if cc.V == tc.V {
				entry = i
				break
			}
		}
		if allConcrete {
			if entry < 0 {
				entry = defaultIdx
			}
			if entry < 0 {
				return k(st, ctlFallthrough)
			}
			return runFrom(st, entry, k)
		}
	}

	// Symbolic tag: fork per case.
	e.noteBranch(st, v.Position(), tag)
	e.obs.Add("symexec.forks", 1)
	// Every arm's state and path condition is built before any arm runs;
	// entry is the first case an arm runs, or -1 to fall past the switch.
	type arm struct {
		st    *state
		entry int
	}
	var excluded []sym.Expr
	var arms []arm
	for i, c := range v.Cases {
		if c.IsDefault {
			continue
		}
		match := e.itn.NewBinary(sym.OpEq, tag, caseVals[i])
		branch := st.clone()
		branch.pc = branch.pc.And(match)
		for _, ex := range excluded {
			branch.pc = branch.pc.And(e.itn.Negate(ex))
		}
		arms = append(arms, arm{st: branch, entry: i})
		excluded = append(excluded, match)
	}
	// No-match state: default case, or fall past the switch.
	rest := st.clone()
	for _, ex := range excluded {
		rest.pc = rest.pc.And(e.itn.Negate(ex))
	}
	arms = append(arms, arm{st: rest, entry: defaultIdx})
	for _, a := range arms {
		if !e.feasible(a.st.pc) {
			continue
		}
		var err error
		if a.entry >= 0 {
			err = runFrom(a.st, a.entry, k)
		} else {
			err = k(a.st, ctlFallthrough)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
