package symexec

import (
	"fmt"
	"strconv"

	"privacyscope/internal/mem"
	"privacyscope/internal/minic"
	"privacyscope/internal/sym"
)

// eval evaluates an expression in a state, returning its symbolic value and
// static type. Assignments and calls mutate the state in place (expressions
// never fork; only statements do).
func (e *Engine) eval(st *state, x minic.Expr) (mem.SVal, minic.Type, error) {
	switch v := x.(type) {
	case *minic.IntLitExpr:
		return sym.IntConst{V: int32(v.V)}, minic.Basic{Kind: minic.Int}, nil
	case *minic.FloatLitExpr:
		return sym.FloatConst{V: v.V}, minic.Basic{Kind: minic.Double}, nil
	case *minic.StringLitExpr:
		// Opaque non-secret pointer (format strings etc.).
		return sym.IntConst{V: 0}, minic.Pointer{Elem: minic.Basic{Kind: minic.Char}}, nil
	case *minic.IdentExpr, *minic.IndexExpr, *minic.MemberExpr, *minic.DerefExpr:
		reg, ty, err := e.lplace(st, x)
		if err != nil {
			return nil, nil, err
		}
		// Arrays decay to their first-element address.
		if arr, ok := ty.(minic.Array); ok {
			return reg.Addr(), minic.Pointer{Elem: arr.Elem}, nil
		}
		if stt, ok := ty.(*minic.StructType); ok {
			return reg.Addr(), minic.Pointer{Elem: stt}, nil
		}
		val, err := e.load(st, reg, ty)
		if err != nil {
			return nil, nil, err
		}
		return val, ty, nil
	case *minic.AddrExpr:
		reg, ty, err := e.lplace(st, v.X)
		if err != nil {
			return nil, nil, err
		}
		return reg.Addr(), minic.Pointer{Elem: ty}, nil
	case *minic.AssignExpr:
		return e.evalAssign(st, v)
	case *minic.IncDecExpr:
		return e.evalIncDec(st, v)
	case *minic.UnExpr:
		val, ty, err := e.eval(st, v.X)
		if err != nil {
			return nil, nil, err
		}
		if v.Op != sym.OpNeg {
			ty = intType // ~ and ! yield an int
		}
		return e.itn.NewUnary(v.Op, scalarOf(val)), ty, nil
	case *minic.BinExpr:
		return e.evalBinary(st, v)
	case *minic.CondExpr:
		return e.evalCond(st, v)
	case *minic.CastExpr:
		val, ty, err := e.eval(st, v.X)
		if err != nil {
			return nil, nil, err
		}
		return e.convert(val, ty, v.To), v.To, nil
	case *minic.SizeofExpr:
		size := 0
		if v.Ty != nil {
			size = minic.SizeOf(v.Ty)
		} else {
			_, ty, err := e.eval(st, v.X)
			if err != nil {
				return nil, nil, err
			}
			size = minic.SizeOf(ty)
		}
		return sym.IntConst{V: int32(size)}, minic.Basic{Kind: minic.Int}, nil
	case *minic.CallExpr:
		return e.evalCall(st, v)
	}
	return nil, nil, fmt.Errorf("symexec: unknown expression %T", x)
}

func (e *Engine) evalAssign(st *state, v *minic.AssignExpr) (mem.SVal, minic.Type, error) {
	reg, ty, err := e.lplace(st, v.LHS)
	if err != nil {
		return nil, nil, err
	}
	rhs, rty, err := e.eval(st, v.RHS)
	if err != nil {
		return nil, nil, err
	}
	if v.Op != 0 {
		cur, err := e.load(st, reg, ty)
		if err != nil {
			return nil, nil, err
		}
		rhs = e.itn.NewBinary(v.Op, scalarOf(cur), scalarOf(rhs))
		rty = binResultType(v.Op, ty, rty)
	}
	out := e.convert(rhs, rty, ty)
	st.store.Bind(reg, out)
	return out, ty, nil
}

func (e *Engine) evalIncDec(st *state, v *minic.IncDecExpr) (mem.SVal, minic.Type, error) {
	reg, ty, err := e.lplace(st, v.X)
	if err != nil {
		return nil, nil, err
	}
	cur, err := e.load(st, reg, ty)
	if err != nil {
		return nil, nil, err
	}
	op := sym.OpAdd
	if v.Decr {
		op = sym.OpSub
	}
	updated := e.itn.NewBinary(op, scalarOf(cur), sym.IntConst{V: 1})
	st.store.Bind(reg, updated)
	if v.Prefix {
		return updated, ty, nil
	}
	return cur, ty, nil
}

func (e *Engine) evalBinary(st *state, v *minic.BinExpr) (mem.SVal, minic.Type, error) {
	l, lty, err := e.eval(st, v.L)
	if err != nil {
		return nil, nil, err
	}
	// Pointer arithmetic: p ± i moves the element index.
	if loc, isLoc := l.(*mem.Loc); isLoc && (v.Op == sym.OpAdd || v.Op == sym.OpSub) {
		r, _, err := e.eval(st, v.R)
		if err != nil {
			return nil, nil, err
		}
		idx, concrete := concreteInt(scalarOf(r))
		if !concrete {
			// Symbolic pointer arithmetic degrades to the summary
			// element.
			return e.elementOf(loc.R, summaryIndex).Addr(), lty, nil
		}
		if v.Op == sym.OpSub {
			idx = -idx
		}
		return e.shiftRegion(loc.R, idx).Addr(), lty, nil
	}
	r, rty, err := e.eval(st, v.R)
	if err != nil {
		return nil, nil, err
	}
	return e.itn.NewBinary(v.Op, scalarOf(l), scalarOf(r)), binResultType(v.Op, lty, rty), nil
}

// The result types of binary operators, boxed once.
var (
	intType    minic.Type = minic.Basic{Kind: minic.Int}
	doubleType minic.Type = minic.Basic{Kind: minic.Double}
)

// binResultType is C's type of l op r: comparisons and logical operators
// yield an int, and the other operators a double when an operand is one.
func binResultType(op sym.Op, lty, rty minic.Type) minic.Type {
	if !op.IsComparison() && !op.IsLogical() && (minic.IsFloatType(lty) || minic.IsFloatType(rty)) {
		return doubleType
	}
	return intType
}

func (e *Engine) evalCond(st *state, v *minic.CondExpr) (mem.SVal, minic.Type, error) {
	condVal, _, err := e.eval(st, v.Cond)
	if err != nil {
		return nil, nil, err
	}
	cond := e.itn.Truth(scalarOf(condVal))
	if c, ok := cond.(sym.IntConst); ok {
		if c.V != 0 {
			return e.eval(st, v.Then)
		}
		return e.eval(st, v.Else)
	}
	// Symbolic selector: an uninterpreted ite keeps all taints.
	thenV, ty, err := e.eval(st, v.Then)
	if err != nil {
		return nil, nil, err
	}
	elseV, _, err := e.eval(st, v.Else)
	if err != nil {
		return nil, nil, err
	}
	ite := e.itn.NewCall("ite", []sym.Expr{cond, scalarOf(thenV), scalarOf(elseV)})
	return ite, ty, nil
}

// summaryIndex is the pseudo element index standing for "some element"
// when the index expression is symbolic.
const summaryIndex = -1

// lplace resolves an lvalue expression to a region and its element type.
func (e *Engine) lplace(st *state, x minic.Expr) (mem.Region, minic.Type, error) {
	switch v := x.(type) {
	case *minic.IdentExpr:
		d := v.Decl
		switch {
		case d == nil:
			return nil, nil, &minic.Error{Pos: v.Pos, Msg: "undeclared identifier " + v.Name}
		case d.Global:
			return e.global(d), d.Type, nil
		}
		return e.local(st.frame(), d), d.Type, nil
	case *minic.IndexExpr:
		return e.indexPlace(st, v)
	case *minic.DerefExpr:
		val, ty, err := e.eval(st, v.X)
		if err != nil {
			return nil, nil, err
		}
		loc, ok := val.(*mem.Loc)
		if !ok {
			return nil, nil, &minic.Error{Pos: v.Pos, Msg: "dereference of non-pointer value"}
		}
		elem, _ := minic.ElemType(ty)
		if elem == nil {
			elem = minic.Basic{Kind: minic.Int}
		}
		if blk, isBlk := loc.R.(*mem.SymRegion); isBlk {
			return e.elementOf(blk, 0), elem, nil
		}
		return loc.R, elem, nil
	case *minic.MemberExpr:
		return e.memberPlace(st, v)
	}
	return nil, nil, fmt.Errorf("symexec: not an lvalue: %T", x)
}

func (e *Engine) indexPlace(st *state, v *minic.IndexExpr) (mem.Region, minic.Type, error) {
	idxVal, _, err := e.eval(st, v.Index)
	if err != nil {
		return nil, nil, err
	}
	idx, concrete := concreteInt(scalarOf(idxVal))
	if !concrete {
		idx = summaryIndex
		e.warn("symbolic array index summarized")
	}

	// Array lvalue base: subscript within the same object.
	if reg, ty, err := e.lplace(st, v.X); err == nil {
		if arr, ok := ty.(minic.Array); ok {
			er := e.elementOf(reg, idx)
			e.bindEnvExpr(v, er)
			e.noteAccess(st, v.Pos, er, idxVal, concrete)
			return er, arr.Elem, nil
		}
	}
	// Pointer base.
	val, ty, err := e.eval(st, v.X)
	if err != nil {
		return nil, nil, err
	}
	loc, ok := val.(*mem.Loc)
	if !ok {
		return nil, nil, &minic.Error{Pos: v.Pos, Msg: "indexing a non-pointer"}
	}
	elem, ok := minic.ElemType(ty)
	if !ok {
		elem = minic.Basic{Kind: minic.Int}
	}
	er := e.shiftRegion(loc.R, idx)
	e.bindEnvExpr(v, er)
	e.noteAccess(st, v.Pos, er, idxVal, concrete)
	return er, elem, nil
}

// noteAccess records a memory subscript whose index expression carries
// secret taint. Concrete indices are skipped: the address is then fixed for
// all secret values, so the access pattern reveals nothing.
func (e *Engine) noteAccess(st *state, pos minic.Pos, er mem.Region, idxVal mem.SVal, concrete bool) {
	if !e.opts.RecordSecretAccess || concrete {
		return
	}
	ix := scalarOf(idxVal)
	if sym.TaintOf(ix).IsBottom() {
		return
	}
	st.accesses = append(st.accesses, AccessEvent{Pos: pos, Display: e.displayName(er), Index: ix})
	e.obs.Add("symexec.events.secret_indices", 1)
}

// elementOf returns the element region, collapsing summary indices.
func (e *Engine) elementOf(super mem.Region, idx int) mem.Region {
	return e.mgr.Element(super, idx)
}

// shiftRegion computes pointer movement: a SymRegion base becomes its
// element; an ElementRegion shifts its index.
func (e *Engine) shiftRegion(r mem.Region, delta int) mem.Region {
	switch v := r.(type) {
	case *mem.ElementRegion:
		if v.Index == summaryIndex || delta == summaryIndex {
			return e.mgr.Element(v.Super(), summaryIndex)
		}
		return e.mgr.Element(v.Super(), v.Index+delta)
	default:
		return e.mgr.Element(r, delta)
	}
}

func (e *Engine) memberPlace(st *state, v *minic.MemberExpr) (mem.Region, minic.Type, error) {
	var base mem.Region
	var baseTy minic.Type
	if v.Arrow {
		val, ty, err := e.eval(st, v.X)
		if err != nil {
			return nil, nil, err
		}
		loc, ok := val.(*mem.Loc)
		if !ok {
			return nil, nil, &minic.Error{Pos: v.Pos, Msg: "-> on non-pointer value"}
		}
		base = loc.R
		baseTy, _ = minic.ElemType(ty)
	} else {
		reg, ty, err := e.lplace(st, v.X)
		if err != nil {
			return nil, nil, err
		}
		base = reg
		baseTy = ty
	}
	stt, ok := baseTy.(*minic.StructType)
	if !ok {
		return nil, nil, &minic.Error{Pos: v.Pos, Msg: "member access on non-struct"}
	}
	fty, ok := stt.FieldType(v.Field)
	if !ok {
		return nil, nil, &minic.Error{Pos: v.Pos, Msg: "no field " + v.Field + " in " + stt.Name}
	}
	fr := e.mgr.Field(base, v.Field)
	e.bindEnvExpr(v, fr)
	return fr, fty, nil
}

// load reads a region, conjuring a memoized input value on a miss.
func (e *Engine) load(st *state, reg mem.Region, ty minic.Type) (mem.SVal, error) {
	if v, ok := st.store.Lookup(reg); ok {
		return v, nil
	}
	// Summary fallback: a concrete-index miss after a summarized write
	// reads the summary slot.
	if er, isElem := reg.(*mem.ElementRegion); isElem && er.Index != summaryIndex {
		if v, ok := st.store.Lookup(e.mgr.Element(er.Super(), summaryIndex)); ok {
			return v, nil
		}
	}
	// PRIML's default-zero store: an unwritten variable reads as 0, and
	// the read is not materialized in Δ (no binding, no memoization).
	if e.opts.ZeroDefaultVars {
		return sym.IntConst{V: 0}, nil
	}
	if v, ok := e.inputSyms[reg]; ok {
		st.store.Bind(reg, v)
		return v, nil
	}
	root := mem.Root(reg)
	_, isSymBlock := root.(*mem.SymRegion)
	secret := e.secretRoots[root]
	display := e.displayName(reg)

	// [out]-only buffers enter the enclave zeroed (the marshalling proxy
	// never copies host memory in), so reads of unwritten cells yield 0.
	if _, isOut := e.outRoots[root]; isOut && !secret {
		val := mem.SVal(sym.IntConst{V: 0})
		e.inputSyms[reg] = val
		st.store.Bind(reg, val)
		return val, nil
	}

	var val mem.SVal
	if _, isPtr := ty.(minic.Pointer); isPtr && isSymBlock {
		// Unknown pointer inside an unknown block: a nested block.
		pointee := e.builder.FreshPublic(display + "_blk")
		nested := e.mgr.SymBlock(pointee, display, secret)
		e.rootDisplay[nested] = display
		if secret {
			e.secretRoots[nested] = true
		}
		val = nested.Addr()
	} else if secret {
		// [in]-parameter blocks and re-symbolized decrypt destinations
		// conjure fresh secret data.
		s := e.builder.FreshSecret(display)
		e.res.SecretSymbols[display] = s
		val = s
	} else {
		val = e.builder.FreshPublic(display)
	}
	e.inputSyms[reg] = val
	st.store.Bind(reg, val)
	return val, nil
}

// displayName renders a region in source notation (secrets[0], model.bias).
func (e *Engine) displayName(reg mem.Region) string {
	switch v := reg.(type) {
	case *mem.ElementRegion:
		idx := "*"
		if v.Index != summaryIndex {
			idx = strconv.Itoa(v.Index)
		}
		return e.displayName(v.Super()) + "[" + idx + "]"
	case *mem.FieldRegion:
		return e.displayName(v.Super()) + "." + v.Field
	default:
		if d, ok := e.rootDisplay[reg]; ok {
			return d
		}
		return reg.String()
	}
}

func concreteInt(x sym.Expr) (int, bool) {
	switch c := x.(type) {
	case sym.IntConst:
		return int(c.V), true
	case sym.FloatConst:
		return int(sym.ToInt32(c.V)), true
	}
	return 0, false
}
