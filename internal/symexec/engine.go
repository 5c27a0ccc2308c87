package symexec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

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
// PRIML — see internal/ir). Create one per analysis run. A single run may
// explore paths on several worker goroutines when Options.PathWorkers > 1;
// the engine's shared structures are synchronized internally, but the
// Engine itself must not be shared across concurrent AnalyzeFunction calls.
type Engine struct {
	prog    *ir.Program
	opts    Options
	mgr     *mem.Manager
	builder *sym.Builder
	sv      *solver.Solver
	itn     *sym.Interner // hash-consing arena; nil with NoIntern
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
	// mapMu guards inputSyms, secretRoots, rootDisplay and
	// res.SecretSymbols against concurrent path workers. Lock order:
	// resMu before mapMu, never the reverse.
	mapMu sync.Mutex

	frameSeq int64
	steps    int64
	states   int64
	pruned   int64
	// regionPad counts the memory regions summarized-away callee bodies
	// would have allocated, so Result.Regions matches inline mode.
	regionPad int64
	res       *Result
	env       *mem.Env
	obs       obs.Observer

	// resMu guards res.Paths, the warning log and the path budget.
	resMu    sync.Mutex
	warns    []warnEntry
	warnIdx  map[string]int
	warnSeq  int64
	truncMu  sync.Mutex
	stopFlag atomic.Bool

	// sem is the path-worker token pool (capacity PathWorkers-1); nil when
	// exploration is sequential.
	sem chan struct{}

	// ctx is the run's cancellation context; trunc records why the
	// exploration stopped early (TruncNone while it is still exhaustive).
	ctx   context.Context
	trunc TruncReason
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
	var itn *sym.Interner
	if !opts.NoIntern {
		itn = sym.NewInterner()
	}
	sv := solver.NewObserved(o)
	sv.SetInterner(itn)
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
		warnIdx:     make(map[string]int),
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
	if e.opts.TrackTrace {
		e.res.Trace = NewTrace()
	}
	e.setupWorkers(name)

	st := &state{
		pc:    solver.True(),
		store: mem.NewStore(),
	}
	// Seed globals with constant initializers; globals with dynamic or
	// absent initializers stay symbolic (conjured on first read).
	if e.prog.Module != nil {
		for _, g := range e.prog.Module.Globals {
			if c, ok := constInit(g.Init); ok {
				reg := e.mgr.Var("::"+g.Name, 0)
				e.rootDisplay[reg] = g.Name
				st.store.Bind(reg, coerceSVal(mem.Scalar{E: c}, g.Type))
			}
		}
	}
	fr := e.pushFrame(st, fn)
	for _, p := range fn.Params {
		cls, ok := classes[p.Name]
		if !ok {
			cls = ParamPublic
		}
		if err := e.bindParam(st, fr, p, cls); err != nil {
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
	// Deterministic result order regardless of worker interleaving: paths
	// and warnings sort by their fork-choice keys, which reproduces the
	// sequential depth-first order exactly.
	sort.SliceStable(e.res.Paths, func(i, j int) bool {
		return bytes.Compare(e.res.Paths[i].key, e.res.Paths[j].key) < 0
	})
	e.finishWarnings()
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
	e.res.States = int(atomic.LoadInt64(&e.states))
	e.res.Coverage = Coverage{
		CompletedPaths:  len(e.res.Paths),
		IncompletePaths: incomplete,
		PrunedPaths:     int(atomic.LoadInt64(&e.pruned)),
		StepsUsed:       int(atomic.LoadInt64(&e.steps)),
		Truncated:       e.trunc != TruncNone,
		Reason:          e.trunc,
	}
	e.res.Regions = e.mgr.RegionCount() + int(atomic.LoadInt64(&e.regionPad))
	if e.res.Trace != nil {
		e.res.TraceTruncated = e.res.Trace.Dropped()
	}
	if e.itn != nil {
		// Flush arena deltas so a (hypothetical) second AnalyzeFunction on
		// the same engine never double-counts.
		h, m, sz := e.itn.Stats()
		e.obs.Add("intern.hits", h-e.internHits)
		e.obs.Add("intern.misses", m-e.internMisses)
		e.internHits, e.internMisses = h, m
		e.obs.Observe("intern.size", sz)
	}
	e.obs.Event("symexec.done",
		obs.F("function", name),
		obs.F("paths", fmt.Sprint(len(e.res.Paths))),
		obs.F("states", fmt.Sprint(e.res.States)),
		obs.F("truncated", string(e.trunc)))
	return e.res, nil
}

// setupWorkers decides the effective path-worker count for this entry point
// and allocates the token pool. Parallel exploration is declined when a
// feature needs strict sequential path order: Table-IV trace recording,
// front-end note hooks (the PRIML adapter's hm protocol is cross-path
// order-dependent), and decrypt intrinsics (they re-symbolize shared
// secret-root state mid-path).
func (e *Engine) setupWorkers(entry string) {
	workers := e.opts.PathWorkers
	if workers <= 1 {
		return
	}
	if e.opts.TrackTrace || e.opts.NoteHook != nil {
		return
	}
	reach := e.prog.ReachableCalls(entry)
	names := make([]string, 0, len(reach))
	for n := range reach {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, isDecrypt := e.opts.DecryptFuncs[n]; isDecrypt {
			e.warn(nil, "path workers disabled: decrypt intrinsic "+n+" re-symbolizes shared memory")
			return
		}
	}
	e.sem = make(chan struct{}, workers-1)
}

// bindParam sets up one entry parameter per its EDL class.
func (e *Engine) bindParam(st *state, fr *sframe, p *minic.VarDecl, cls ParamClass) error {
	reg := e.mgr.Var(p.Name, fr.id)
	fr.declare(p.Name, reg, p.Type)
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
	e.resMu.Lock()
	if len(e.res.Paths) >= e.opts.maxPaths() {
		e.resMu.Unlock()
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
		key:            st.key,
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
	e.resMu.Unlock()
	e.snapshot(st, "path end")
	return nil
}

// state is one exploded node: π, σ, call stack and per-path observations.
type state struct {
	pc         *solver.PathCondition
	store      *mem.Store
	frames     []*sframe
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
	// key is the fork-choice sequence that reached this state (two
	// big-endian bytes per fork). Lexicographic order over keys equals the
	// sequential depth-first exploration order, which is what makes
	// parallel results deterministically sortable.
	key []byte
	// seqLock > 0 pins this state's subtree to the requesting worker
	// (inlineCall's first-path adoption is order-dependent).
	seqLock int
}

// clone forks the state. The store and the frames' scope maps are shared
// copy-on-write; the event logs are shared with their capacity clipped, so
// an append by either state reallocates instead of writing into the other's
// backing array (logged events are never modified in place). key is
// replaced, never appended to, at every fork (childKey).
func (st *state) clone() *state {
	frames := make([]*sframe, len(st.frames))
	for i, f := range st.frames {
		frames[i] = f.clone()
	}
	return &state{
		pc:         st.pc,
		store:      st.store.Clone(),
		frames:     frames,
		ocalls:     st.ocalls[:len(st.ocalls):len(st.ocalls)],
		incomplete: st.incomplete,
		inits:      st.inits[:len(st.inits):len(st.inits)],
		branches:   st.branches[:len(st.branches):len(st.branches)],
		accesses:   st.accesses[:len(st.accesses):len(st.accesses)],
		evSeq:      st.evSeq,
		cost:       st.cost,
		key:        st.key,
		seqLock:    st.seqLock,
	}
}

// fork returns the states for the arms of a fork, each with its path
// condition extended by its own conjunct. All arms but the last are clones;
// the last takes over st itself, which no one reads once the fork has
// handed out its arms — except inside inlineCall's pinned subtree
// (seqLock > 0), which may restore st after exploring the callee, so there
// every arm is a clone.
func (st *state) fork(conds ...sym.Expr) []*state {
	arms := make([]*state, len(conds))
	for i, c := range conds {
		arm := st
		if i < len(conds)-1 || st.seqLock > 0 {
			arm = st.clone()
		}
		arm.pc = arm.pc.And(c)
		arms[i] = arm
	}
	return arms
}

func (st *state) frame() *sframe { return st.frames[len(st.frames)-1] }

type varBind struct {
	region mem.Region
	ty     minic.Type
}

// sframe is one call frame: a stack of block scopes. Scope maps are
// created on first declaration (a block that declares nothing costs no
// map) and shared copy-on-write between forked frames.
type sframe struct {
	fn     *ir.Func
	id     int
	scopes []map[string]varBind
	// shared is the number of leading scopes whose maps another frame may
	// also read; declare copies such a map before writing to it.
	shared int
}

// clone forks the frame in O(scopes): both frames keep reading the current
// scope maps, and whichever declares into one first copies it.
func (f *sframe) clone() *sframe {
	f.shared = len(f.scopes)
	scopes := make([]map[string]varBind, len(f.scopes), len(f.scopes)+1)
	copy(scopes, f.scopes)
	return &sframe{fn: f.fn, id: f.id, scopes: scopes, shared: f.shared}
}

func (f *sframe) push() { f.scopes = append(f.scopes, nil) }

func (f *sframe) pop() {
	f.scopes = f.scopes[:len(f.scopes)-1]
	f.shared = min(f.shared, len(f.scopes))
}

func (f *sframe) declare(name string, r mem.Region, ty minic.Type) {
	top := len(f.scopes) - 1
	if sc := f.scopes[top]; sc == nil || top < f.shared {
		own := make(map[string]varBind, len(sc)+1)
		for k, v := range sc {
			own[k] = v
		}
		f.scopes[top] = own
		f.shared = min(f.shared, top)
	}
	f.scopes[top][name] = varBind{region: r, ty: ty}
}

func (f *sframe) lookup(name string) (varBind, bool) {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if b, ok := f.scopes[i][name]; ok {
			return b, true
		}
	}
	return varBind{}, false
}

func (e *Engine) pushFrame(st *state, fn *ir.Func) *sframe {
	fr := &sframe{fn: fn, id: int(atomic.AddInt64(&e.frameSeq, 1))}
	fr.push()
	st.frames = append(st.frames, fr)
	return fr
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
	if e.stopFlag.Load() {
		return errStopExploration
	}
	n := atomic.AddInt64(&e.steps, 1)
	e.obs.Add("symexec.steps", 1)
	if int(n) > e.opts.maxSteps() {
		e.obs.Add("symexec.truncations.max_steps", 1)
		return e.stop(TruncStepBudget)
	}
	if n%ctxCheckInterval == 0 {
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
	st.frame().push()
	return e.execSeq(st, b.Ops, func(end *state, c ctl) error {
		end.frame().pop()
		return k(end, c)
	})
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
		for _, d := range v.Decls {
			reg := e.mgr.Var(d.Name+"#"+strconv.Itoa(st.frame().id), st.frame().id)
			st.frame().declare(d.Name, reg, d.Type)
			e.bindEnv(d.Name, reg)
			e.mapMu.Lock()
			e.rootDisplay[reg] = d.Name
			e.mapMu.Unlock()
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
		if !v.Scoped {
			return e.execLoop(st, v.Position(), v.Cond, nil, v.Body, k)
		}
		st.frame().push()
		inner := func(end *state, c ctl) error {
			end.frame().pop()
			return k(end, c)
		}
		if v.Init != nil {
			return e.exec(st, v.Init, func(next *state, c ctl) error {
				if c.kind != ctlNext {
					return inner(next, c)
				}
				return e.execLoop(next, v.Position(), v.Cond, v.Post, v.Body, inner)
			})
		}
		return e.execLoop(st, v.Position(), v.Cond, v.Post, v.Body, inner)
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

// branchCase is one arm of a fork: a pre-cloned state (path condition
// already extended) and the work to run on it.
type branchCase struct {
	st  *state
	run func(*state) error
}

// childKey extends a fork-choice key by one choice (two big-endian bytes).
func childKey(parent []byte, choice int) []byte {
	k := make([]byte, len(parent)+2)
	copy(k, parent)
	k[len(parent)] = byte(choice >> 8)
	k[len(parent)+1] = byte(choice)
	return k
}

// runBranches explores the arms of a fork. Sequentially it preserves the
// engine's historical depth-first order exactly. With a worker pool, arms
// past the first are offloaded to free workers (non-blocking token
// acquisition — a full pool degrades to inline execution, so the pool can
// never deadlock); the first arm always runs on the requesting worker.
// Worker panics are captured and re-raised on the requesting goroutine
// after all arms join, so a panicking path degrades the whole analysis to
// the facade's ErrorReport instead of killing the process or leaking
// goroutines.
func (e *Engine) runBranches(parent *state, branches []branchCase) error {
	for i := range branches {
		branches[i].st.key = childKey(parent.key, i)
	}
	if e.sem == nil || parent.seqLock > 0 {
		for _, b := range branches {
			if err := b.run(b.st); err != nil {
				return err
			}
		}
		return nil
	}
	n := len(branches)
	errs := make([]error, n)
	pans := make([]any, n)
	inline := make([]bool, n)
	inline[0] = true
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		select {
		case e.sem <- struct{}{}:
		default:
			inline[i] = true
			continue
		}
		wg.Add(1)
		e.obs.Add("symexec.workers.spawned", 1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-e.sem }()
			// One span per offloaded subtree (never per statement), so a
			// trace shows where the pool actually ran work. It starts here
			// and ends on this worker goroutine — the cross-goroutine case
			// the Tracer's handle-carried parent links exist for.
			sp := e.obs.StartSpan("symexec/worker")
			sp.Annotate(obs.F("branch", fmt.Sprint(i)))
			defer sp.End()
			defer func() {
				if p := recover(); p != nil {
					pans[i] = p
					e.obs.Add("symexec.workers.panics", 1)
				}
			}()
			errs[i] = branches[i].run(branches[i].st)
		}(i)
	}
	for i := 0; i < n; i++ {
		if !inline[i] {
			continue
		}
		e.obs.Add("symexec.workers.inline", 1)
		func(i int) {
			defer func() {
				if p := recover(); p != nil {
					pans[i] = p
					e.obs.Add("symexec.workers.panics", 1)
				}
			}()
			errs[i] = branches[i].run(branches[i].st)
		}(i)
	}
	wg.Wait()
	for _, p := range pans {
		if p != nil {
			panic(p)
		}
	}
	// Prefer a real semantic error (lowest branch index) over the
	// truncation sentinel so failures surface deterministically.
	for _, err := range errs {
		if err != nil && !errors.Is(err, errStopExploration) {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
	arms := st.fork(cond, e.itn.Negate(cond))
	return e.runBranches(st, []branchCase{
		{st: arms[0], run: func(s *state) error {
			if !e.feasible(s.pc) {
				return nil
			}
			return e.exec(s, v.Then, k)
		}},
		{st: arms[1], run: func(s *state) error {
			if !e.feasible(s.pc) {
				return nil
			}
			if v.Else != nil {
				return e.exec(s, v.Else, k)
			}
			return k(s, ctlFallthrough)
		}},
	})
}

func (e *Engine) feasible(pc *solver.PathCondition) bool {
	if !e.opts.PruneInfeasible {
		return true
	}
	ok := e.sv.Feasible(pc)
	if !ok {
		atomic.AddInt64(&e.pruned, 1)
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
				e.warn(cur, "infinite loop cut at bound")
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
			e.warn(cur, "symbolic loop cut at bound "+fmt.Sprint(e.opts.loopBound()))
			return k(cur, ctlFallthrough)
		}
		e.noteBranch(cur, pos, truth)
		e.obs.Add("symexec.forks", 1)
		arms := cur.fork(truth, e.itn.Negate(truth))
		return e.runBranches(cur, []branchCase{
			{st: arms[0], run: func(s *state) error {
				if !e.feasible(s.pc) {
					return nil
				}
				return e.exec(s, body, func(next *state, cc ctl) error {
					return afterBody(next, cc, remaining-1)
				})
			}},
			{st: arms[1], run: func(s *state) error {
				if !e.feasible(s.pc) {
					return nil
				}
				return k(s, ctlFallthrough)
			}},
		})
	}
	return iter(st, e.opts.loopBound())
}

// warnEntry is one deduplicated warning with the fork-choice key and global
// sequence of its first (depth-first-least) emission, for deterministic
// ordering under parallel exploration.
type warnEntry struct {
	key   []byte
	order int64
	msg   string
}

// warn records a soft diagnostic. st may be nil for engine-level warnings
// emitted outside any path.
func (e *Engine) warn(st *state, msg string) {
	var key []byte
	if st != nil {
		key = st.key
	}
	e.resMu.Lock()
	if i, ok := e.warnIdx[msg]; ok {
		w := &e.warns[i]
		if bytes.Compare(key, w.key) < 0 {
			w.key = append([]byte(nil), key...)
			w.order = e.warnSeq
		}
	} else {
		e.warnIdx[msg] = len(e.warns)
		e.warns = append(e.warns, warnEntry{
			key:   append([]byte(nil), key...),
			order: e.warnSeq,
			msg:   msg,
		})
		e.obs.Event("symexec.warning", obs.F("msg", msg))
	}
	e.warnSeq++
	e.resMu.Unlock()
}

// finishWarnings materializes Result.Warnings in deterministic order: by
// fork-choice key, then by emission sequence — which is exactly the
// sequential emission order when exploration ran on one worker.
func (e *Engine) finishWarnings() {
	sort.SliceStable(e.warns, func(i, j int) bool {
		if c := bytes.Compare(e.warns[i].key, e.warns[j].key); c != 0 {
			return c < 0
		}
		return e.warns[i].order < e.warns[j].order
	})
	for _, w := range e.warns {
		e.res.Warnings = append(e.res.Warnings, w.msg)
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
	return sc
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
	var excluded []sym.Expr
	var branches []branchCase
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
		entry := i
		branches = append(branches, branchCase{st: branch, run: func(s *state) error {
			if !e.feasible(s.pc) {
				return nil
			}
			return runFrom(s, entry, k)
		}})
		excluded = append(excluded, match)
	}
	// No-match state: default case, or fall past the switch.
	rest := st.clone()
	for _, ex := range excluded {
		rest.pc = rest.pc.And(e.itn.Negate(ex))
	}
	branches = append(branches, branchCase{st: rest, run: func(s *state) error {
		if !e.feasible(s.pc) {
			return nil
		}
		if defaultIdx >= 0 {
			return runFrom(s, defaultIdx, k)
		}
		return k(s, ctlFallthrough)
	}})
	return e.runBranches(st, branches)
}
