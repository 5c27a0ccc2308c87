package symexec

import (
	"fmt"

	"privacyscope/internal/ir"
	"privacyscope/internal/mem"
	"privacyscope/internal/minic"
	"privacyscope/internal/sym"
)

// isIntrinsic reports whether the engine has a native model for the
// function (so statement-position calls must not bypass it).
func isIntrinsic(opts Options, name string) bool {
	if opts.Intrinsics[name] != nil {
		return true
	}
	if sym.IsMath(name) {
		return true
	}
	if _, ok := opts.DecryptFuncs[name]; ok {
		return true
	}
	switch name {
	case "memcpy", "memset", "rand", "sgx_read_rand", "srand", "free", "malloc":
		return true
	}
	return false
}

// noteLifecycle records a call to a configured lifecycle init function on
// the current path, with the shared ocall/init sequence number the
// orderliness detector replays. No-op unless Options.InitFuncs names fn.
func (e *Engine) noteLifecycle(st *state, fn string, pos minic.Pos) {
	if !e.opts.InitFuncs[fn] {
		return
	}
	st.inits = append(st.inits, LifecycleEvent{Func: fn, Pos: pos, Seq: st.evSeq})
	st.evSeq++
	e.obs.Add("symexec.events.lifecycle", 1)
}

// ptrEscape captures everything bound under an OCALL pointer argument's
// region at call time: once the call crosses the enclave boundary those
// cells are untrusted memory. Cell order is deterministic (store iteration
// is sorted by region key).
func (e *Engine) ptrEscape(st *state, arg int, loc *mem.Loc) PtrEscape {
	root := mem.Root(loc.R)
	pe := PtrEscape{Arg: arg, Display: e.displayName(root)}
	for _, sub := range st.store.SubRegionsOf(root) {
		v, ok := st.store.Lookup(sub)
		if !ok {
			continue
		}
		sc, isScalar := v.(sym.Expr)
		if !isScalar {
			continue
		}
		pe.Cells = append(pe.Cells, EscapeCell{Display: e.displayName(sub), Value: sc})
	}
	e.obs.Add("symexec.events.ptr_escapes", 1)
	return pe
}

// execCallStmt executes a statement-position user call with full path
// sensitivity: every path through the callee continues the caller.
func (e *Engine) execCallStmt(st *state, fn *ir.Func, v *minic.CallExpr, k *kont) error {
	if len(st.frames) >= e.opts.inlineDepth() {
		// Skipping the call under-approximates the program: whatever the
		// callee would have observed or leaked is unexplored, so the
		// exploration is marked truncated — a no-findings run degrades to
		// Inconclusive instead of claiming Secure.
		e.warn("inline depth exceeded at " + fn.Name + "; call skipped")
		e.markTruncated(TruncInlineDepth)
		return e.resume(st, k, ctlFallthrough)
	}
	args, err := e.evalArgs(st, fn, v)
	if err != nil {
		return err
	}
	e.noteLifecycle(st, fn.Name, v.Pos)
	// Statement position discards the result, but a summary still replays
	// the callee's accounting, keeping the run identical to inlining.
	if _, ok := e.applySummary(st, fn, args); ok {
		return e.resume(st, k, ctlFallthrough)
	}
	fr := e.pushFrame(st, fn)
	for i, p := range fn.Params {
		reg := e.param(fr, p)
		if i < len(args) {
			st.store.Bind(reg, args[i])
		}
	}
	return e.execSeq(st, fn.Body.Ops, 0, &kont{kind: kCall, parent: k})
}

// evalArgs evaluates the arguments of a call to the user function fn,
// each converted to its parameter's declared type.
func (e *Engine) evalArgs(st *state, fn *ir.Func, v *minic.CallExpr) ([]mem.SVal, error) {
	args := make([]mem.SVal, len(v.Args))
	for i, a := range v.Args {
		val, ty, err := e.eval(st, a)
		if err != nil {
			return nil, err
		}
		if i < len(fn.Params) {
			val = e.convert(val, ty, fn.Params[i].Type)
		}
		args[i] = val
	}
	return args, nil
}

// evalCall gives symbolic semantics to function calls: user functions are
// inlined; recognized builtins have native models; OCALL sinks record their
// arguments; decrypt intrinsics re-symbolize their destination as secret.
func (e *Engine) evalCall(st *state, v *minic.CallExpr) (mem.SVal, minic.Type, error) {
	intTy := minic.Type(minic.Basic{Kind: minic.Int})
	e.noteLifecycle(st, v.Fun, v.Pos)

	// Front-end intrinsics (the PRIML adapter's get_secret/declassify)
	// take precedence over every built-in model.
	if intr := e.opts.Intrinsics[v.Fun]; intr != nil {
		args := make([]sym.Expr, 0, len(v.Args))
		for _, a := range v.Args {
			val, _, err := e.eval(st, a)
			if err != nil {
				return nil, nil, err
			}
			args = append(args, scalarOf(val))
		}
		out, err := intr(IntrinsicCall{Fun: v.Fun, Args: args, Pos: v.Pos, PC: st.pc})
		if err != nil {
			return nil, nil, err
		}
		if out == nil {
			out = sym.IntConst{V: 0}
		}
		return out, intTy, nil
	}

	if e.opts.OCallFuncs[v.Fun] {
		ev := SinkEvent{Func: v.Fun, Pos: v.Pos, PC: st.pc, Seq: st.evSeq}
		st.evSeq++
		for i, a := range v.Args {
			val, _, err := e.eval(st, a)
			if err != nil {
				return nil, nil, err
			}
			switch sv := val.(type) {
			case sym.Expr:
				ev.Args = append(ev.Args, sv)
			case *mem.Loc:
				if e.opts.RecordPtrEscapes {
					ev.PtrArgs = append(ev.PtrArgs, e.ptrEscape(st, i, sv))
				}
			}
		}
		st.ocalls = append(st.ocalls, ev)
		return sym.IntConst{V: 0}, intTy, nil
	}

	if dstIdx, isDecrypt := e.opts.DecryptFuncs[v.Fun]; isDecrypt {
		return e.evalDecrypt(st, v, dstIdx)
	}

	// Math builtins are uninterpreted-but-foldable applications that
	// preserve argument taint.
	if f := sym.LookupMath(v.Fun); f != nil {
		args := make([]sym.Expr, 0, len(v.Args))
		for _, a := range v.Args {
			val, _, err := e.eval(st, a)
			if err != nil {
				return nil, nil, err
			}
			args = append(args, scalarOf(val))
		}
		ty := doubleType
		if f.IntResult {
			ty = intType
		}
		return e.itn.NewCall(v.Fun, args), ty, nil
	}

	switch v.Fun {
	case "memcpy":
		return e.evalMemcpy(st, v)
	case "memset":
		return e.evalMemset(st, v)
	case "rand":
		// Fresh in-enclave entropy per call occurrence: unknown to the
		// attacker, but only a probabilistic mask for secrets (§VIII-A).
		return e.builder.FreshEntropy(fmt.Sprintf("rand@%s", v.Pos)), intTy, nil
	case "sgx_read_rand":
		// sgx_read_rand(buf, n): fill the destination with fresh
		// entropy cells.
		if len(v.Args) == 2 {
			dstV, _, err := e.eval(st, v.Args[0])
			if err != nil {
				return nil, nil, err
			}
			nV, _, err := e.eval(st, v.Args[1])
			if err != nil {
				return nil, nil, err
			}
			if dst, ok := dstV.(*mem.Loc); ok {
				n, concrete := concreteInt(scalarOf(nV))
				if !concrete || n > 4096 {
					n = 1
					st.store.Bind(e.elementOf(dst.R, summaryIndex),
						e.builder.FreshEntropy(fmt.Sprintf("rand@%s[*]", v.Pos)))
					e.warn("sgx_read_rand with symbolic length summarized")
				} else {
					for i := 0; i < n; i++ {
						st.store.Bind(e.shiftRegion(dst.R, i),
							e.builder.FreshEntropy(fmt.Sprintf("rand@%s[%d]", v.Pos, i)))
					}
				}
			}
		}
		return sym.IntConst{V: 0}, intTy, nil
	case "srand", "free":
		for _, a := range v.Args {
			if _, _, err := e.eval(st, a); err != nil {
				return nil, nil, err
			}
		}
		return sym.IntConst{V: 0}, intTy, nil
	case "malloc":
		pointee := e.builder.FreshPublic(fmt.Sprintf("heap@%s", v.Pos))
		blk := e.mgr.SymBlock(pointee, pointee.Name, false)
		return blk.Addr(), minic.Pointer{Elem: minic.Basic{Kind: minic.Int}}, nil
	}

	fn, ok := e.prog.Func(v.Fun)
	if !ok || fn.Body == nil {
		// Unknown external: opaque result. Conservative mode treats it
		// as a fresh secret so unmodeled code cannot launder taint.
		for _, a := range v.Args {
			if _, _, err := e.eval(st, a); err != nil {
				return nil, nil, err
			}
		}
		if e.opts.ConservativeExterns {
			e.warn("call to unmodeled function " + v.Fun + " treated as a fresh secret (conservative mode)")
			name := v.Fun + "@" + v.Pos.String()
			s := e.builder.FreshSecret(name)
			e.res.SecretSymbols[name] = s
			return s, intTy, nil
		}
		e.warn("call to unmodeled function " + v.Fun + " returns an unconstrained public value")
		return e.builder.FreshPublic(v.Fun + "@" + v.Pos.String()), intTy, nil
	}
	return e.callUser(st, fn, v)
}

// callUser resolves an expression-position call to a defined user function:
// summary application when one applies, inlining otherwise. Argument
// evaluation happens exactly once, before the mode choice, so both modes
// see identical argument effects.
func (e *Engine) callUser(st *state, fn *ir.Func, v *minic.CallExpr) (mem.SVal, minic.Type, error) {
	if len(st.frames) >= e.opts.inlineDepth() {
		// The unconstrained stand-in hides whatever the callee computes or
		// leaks: mark the exploration truncated so a clean run degrades to
		// Inconclusive, never Secure.
		e.warn("inline depth exceeded at " + fn.Name + "; returning unconstrained value")
		e.markTruncated(TruncInlineDepth)
		return e.builder.FreshPublic(fn.Name + "@depth"), fn.Return, nil
	}
	args, err := e.evalArgs(st, fn, v)
	if err != nil {
		return nil, nil, err
	}
	if ret, ok := e.applySummary(st, fn, args); ok {
		return ret, fn.Return, nil
	}
	return e.inlineCall(st, fn, args)
}

// inlineCall executes a user function inline on already-evaluated arguments
// (callUser evaluates them so summary application and inlining share the
// argument effects). The callee must be loop-free
// in its control effect on the caller: any internal forking is flattened by
// approximating the call result when the callee forks. To keep the engine
// compositional, callees are executed with the same continuation-passing
// machinery; every path through the callee continues the caller.
//
// Because expressions cannot fork (only statements can), a call inside an
// expression with a forking callee is approximated: the callee runs on the
// current state and its first completed path's return value is used, with a
// warning. ML workloads' helpers are branch-free or concretely-branched, so
// this approximation does not trigger on the evaluation suite.
func (e *Engine) inlineCall(st *state, fn *ir.Func, args []mem.SVal) (mem.SVal, minic.Type, error) {
	fr := e.pushFrame(st, fn)
	for i, p := range fn.Params {
		reg := e.param(fr, p)
		if i < len(args) {
			st.store.Bind(reg, args[i])
		}
	}

	var retVal mem.SVal
	var firstEnd *state
	var forked bool
	paths := 0
	// The "callee forks" note marks the call, so it goes where the call
	// began: before anything the callee's paths warn.
	at := len(e.res.Warnings)
	st.inCallExpr++
	err := e.execSeq(st, fn.Body.Ops, 0, &kont{kind: kFunc, fn: func(end *state, c ctl) error {
		paths++
		if paths == 1 {
			if c.kind == ctlReturn && c.ret != nil {
				retVal = c.ret
			} else {
				retVal = sym.IntConst{V: 0}
			}
			firstEnd = end
			return nil
		}
		forked = true
		return nil
	}})
	if err != nil {
		return nil, nil, err
	}
	if forked {
		e.warnAt(at, "callee "+fn.Name+" forks; call-expression result approximated by its first path")
	}
	// Adopt the first completed callee path's state — only after the whole
	// callee exploration finished, because sibling forks inside the callee
	// still reference st through their cloned continuations.
	if firstEnd == nil {
		// Every callee path was infeasible: unconstrained result.
		st.inCallExpr--
		st.frames = st.frames[:len(st.frames)-1]
		return e.builder.FreshPublic(fn.Name + "@nopath"), fn.Return, nil
	}
	if firstEnd != st {
		*st = *firstEnd
	}
	st.inCallExpr--
	// Pop the callee frame.
	st.frames = st.frames[:len(st.frames)-1]
	if retVal == nil {
		retVal = sym.IntConst{V: 0}
	}
	return retVal, fn.Return, nil
}

// evalDecrypt models an IPP-style decryption: after the call, the
// destination buffer holds the user's secret plaintext, so its elements are
// re-symbolized as fresh secret symbols (§VI-B: "assigns the symbolic value
// of secret data to decrypted secret data").
func (e *Engine) evalDecrypt(st *state, v *minic.CallExpr, dstIdx int) (mem.SVal, minic.Type, error) {
	intTy := minic.Type(minic.Basic{Kind: minic.Int})
	var dstLoc *mem.Loc
	for i, a := range v.Args {
		val, _, err := e.eval(st, a)
		if err != nil {
			return nil, nil, err
		}
		if i == dstIdx {
			loc, ok := val.(*mem.Loc)
			if !ok {
				return nil, nil, &minic.Error{Pos: v.Pos, Msg: v.Fun + ": destination is not a pointer"}
			}
			dstLoc = loc
		}
	}
	root := mem.Root(dstLoc.R)
	e.secretRoots[root] = true
	// Any elements already bound under the destination become fresh
	// secrets too.
	for _, sub := range st.store.SubRegionsOf(root) {
		display := e.displayName(sub)
		s := e.builder.FreshSecret(display)
		st.store.Bind(sub, s)
		e.res.SecretSymbols[display] = s
		e.inputSyms[sub] = s
	}
	return sym.IntConst{V: 0}, intTy, nil
}

func (e *Engine) evalMemcpy(st *state, v *minic.CallExpr) (mem.SVal, minic.Type, error) {
	intTy := minic.Type(minic.Basic{Kind: minic.Int})
	if len(v.Args) != 3 {
		return nil, nil, &minic.Error{Pos: v.Pos, Msg: "memcpy expects 3 args"}
	}
	dstV, dstTy, err := e.eval(st, v.Args[0])
	if err != nil {
		return nil, nil, err
	}
	srcV, _, err := e.eval(st, v.Args[1])
	if err != nil {
		return nil, nil, err
	}
	nV, _, err := e.eval(st, v.Args[2])
	if err != nil {
		return nil, nil, err
	}
	dst, dOK := dstV.(*mem.Loc)
	src, sOK := srcV.(*mem.Loc)
	if !dOK || !sOK {
		return nil, nil, &minic.Error{Pos: v.Pos, Msg: "memcpy on non-pointer"}
	}
	elemTy, _ := minic.ElemType(dstTy)
	if elemTy == nil {
		elemTy = minic.Basic{Kind: minic.Char}
	}
	n, concrete := concreteInt(scalarOf(nV))
	if !concrete || n > 4096 {
		// Symbolic length: copy the summary slot only.
		val, err := e.load(st, e.elementOf(src.R, summaryIndex), elemTy)
		if err != nil {
			return nil, nil, err
		}
		st.store.Bind(e.elementOf(dst.R, summaryIndex), val)
		e.warn("memcpy with symbolic length summarized")
		return sym.IntConst{V: 0}, intTy, nil
	}
	for i := 0; i < n; i++ {
		val, err := e.load(st, e.shiftRegion(src.R, i), elemTy)
		if err != nil {
			return nil, nil, err
		}
		st.store.Bind(e.shiftRegion(dst.R, i), val)
	}
	return sym.IntConst{V: 0}, intTy, nil
}

func (e *Engine) evalMemset(st *state, v *minic.CallExpr) (mem.SVal, minic.Type, error) {
	intTy := minic.Type(minic.Basic{Kind: minic.Int})
	if len(v.Args) != 3 {
		return nil, nil, &minic.Error{Pos: v.Pos, Msg: "memset expects 3 args"}
	}
	dstV, _, err := e.eval(st, v.Args[0])
	if err != nil {
		return nil, nil, err
	}
	fillV, _, err := e.eval(st, v.Args[1])
	if err != nil {
		return nil, nil, err
	}
	nV, _, err := e.eval(st, v.Args[2])
	if err != nil {
		return nil, nil, err
	}
	dst, ok := dstV.(*mem.Loc)
	if !ok {
		return nil, nil, &minic.Error{Pos: v.Pos, Msg: "memset on non-pointer"}
	}
	n, concrete := concreteInt(scalarOf(nV))
	if !concrete || n > 4096 {
		st.store.Bind(e.elementOf(dst.R, summaryIndex), fillV)
		e.warn("memset with symbolic length summarized")
		return sym.IntConst{V: 0}, intTy, nil
	}
	for i := 0; i < n; i++ {
		st.store.Bind(e.shiftRegion(dst.R, i), fillV)
	}
	return sym.IntConst{V: 0}, intTy, nil
}
