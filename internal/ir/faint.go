package ir

import "privacyscope/internal/minic"

// Faint joins. A scalar local or parameter is *relevant* when its value can
// reach an observation: a branch, loop or switch condition, a return value,
// a call argument, an address, index, dereference or member operand, a
// store to anything but a plain scalar local, or an assignment nested in a
// larger expression. Relevance flows backwards through plain assignments
// (x = e, x op= e, T x = e: if x is relevant, so is every variable in e)
// to a fixpoint. Every other scalar local is *faint*: nothing the engine or
// a detector observes depends on its value.
//
// An if whose arms only write faint locals from scalar reads, contain no
// control flow, calls or notes, and cost the same number of steps is a
// faint join (IfOp.FaintJoin): after running both arms the engine continues
// once, under the pre-fork path condition, instead of once per arm. The
// analysis is flow-insensitive and keyed by name, so a name declared twice
// (shadowing) is relevant if either declaration is; pointers, arrays,
// structs and globals are never faint.

// markFaintJoins sets IfOp.FaintJoin on f's eligible ifs. Functions with no
// if of the eligible shape pay only the shape walk.
func markFaintJoins(f *Func, globals []*minic.VarDecl) {
	var cands []*IfOp
	walkOps(f.Body, func(op Op) {
		if v, ok := op.(*IfOp); ok && v.Else != nil {
			tc, tok := armCost(v.Then)
			ec, eok := armCost(v.Else)
			if tok && eok && tc == ec {
				cands = append(cands, v)
			}
		}
	})
	if len(cands) == 0 {
		return
	}
	faint, scalar := analyzeLocals(f, globals)
	if len(faint) == 0 {
		return
	}
	for _, v := range cands {
		v.FaintJoin = armFaint(v.Then, faint, scalar) && armFaint(v.Else, faint, scalar)
	}
}

// armCost returns an arm's static step cost under the engine's cost model
// (every op, blocks included, costs one step) and whether the arm has the
// faint-join shape: blocks, empty statements, scalar declarations and
// plain assignments or ++/-- to a named variable, with right-hand sides
// built from variables and literals only.
func armCost(op Op) (int, bool) {
	switch v := op.(type) {
	case *BlockOp:
		cost := 1
		for _, o := range v.Ops {
			c, ok := armCost(o)
			if !ok {
				return 0, false
			}
			cost += c
		}
		return cost, true
	case *EmptyOp:
		return 1, true
	case *DeclOp:
		for _, d := range v.Decls {
			if _, basic := d.Type.(minic.Basic); !basic || (d.Init != nil && !plainRHS(d.Init)) {
				return 0, false
			}
		}
		return 1, true
	case *ExprOp:
		switch x := v.X.(type) {
		case *minic.AssignExpr:
			_, ident := x.LHS.(*minic.IdentExpr)
			return 1, ident && plainRHS(x.RHS)
		case *minic.IncDecExpr:
			_, ident := x.X.(*minic.IdentExpr)
			return 1, ident
		}
	}
	return 0, false
}

// plainRHS reports whether e reads only variables and literals: no calls,
// indexing, dereference, address-of, member access or nested assignment.
func plainRHS(e minic.Expr) bool {
	switch v := e.(type) {
	case *minic.IdentExpr, *minic.IntLitExpr, *minic.FloatLitExpr:
		return true
	case *minic.BinExpr:
		return plainRHS(v.L) && plainRHS(v.R)
	case *minic.UnExpr:
		return plainRHS(v.X)
	case *minic.CastExpr:
		return plainRHS(v.X)
	case *minic.CondExpr:
		return plainRHS(v.Cond) && plainRHS(v.Then) && plainRHS(v.Else)
	}
	return false
}

// armFaint reports whether every variable an arm of the faint-join shape
// declares or writes is faint and every variable it reads is a scalar.
func armFaint(op Op, faint, scalar map[string]bool) bool {
	ok := true
	walkOps(op, func(o Op) {
		switch v := o.(type) {
		case *DeclOp:
			for _, d := range v.Decls {
				ok = ok && faint[d.Name] && readsScalars(d.Init, scalar)
			}
		case *ExprOp:
			switch x := v.X.(type) {
			case *minic.AssignExpr:
				ok = ok && faint[x.LHS.(*minic.IdentExpr).Name] && readsScalars(x.RHS, scalar)
			case *minic.IncDecExpr:
				ok = ok && faint[x.X.(*minic.IdentExpr).Name]
			}
		}
	})
	return ok
}

func readsScalars(e minic.Expr, scalar map[string]bool) bool {
	ok := true
	walkIdents(e, func(name string) { ok = ok && scalar[name] })
	return ok
}

// analyzeLocals returns the faint scalar locals and parameters of f, keyed
// by name (see the comment at the top of this file), and every name f may
// read whose declarations — parameter, local or global — are all scalar. A
// function containing a NoteOp has no faint locals: a note hook may read
// any variable.
func analyzeLocals(f *Func, globals []*minic.VarDecl) (faint, scalar map[string]bool) {
	scalar = map[string]bool{}
	declare := func(d *minic.VarDecl) {
		_, basic := d.Type.(minic.Basic)
		if prev, seen := scalar[d.Name]; seen {
			basic = basic && prev
		}
		scalar[d.Name] = basic
	}
	a := &relevance{rel: map[string]bool{}}
	for _, g := range globals {
		declare(g)
		a.rel[g.Name] = true
	}
	for _, p := range f.Params {
		declare(p)
	}
	notes := false
	walkOps(f.Body, func(op Op) {
		switch v := op.(type) {
		case *DeclOp:
			for _, d := range v.Decls {
				declare(d)
				if d.Init != nil {
					a.assign(d.Name, d.Init)
				}
			}
		case *ExprOp:
			a.effect(v.X)
		case *IfOp:
			a.observe(v.Cond)
		case *LoopOp:
			a.observe(v.Cond)
			a.effect(v.Post)
		case *SwitchOp:
			a.observe(v.Tag)
			for _, c := range v.Cases {
				a.observe(c.Value)
			}
		case *ReturnOp:
			a.observe(v.X)
		case *NoteOp:
			notes = true
		}
	})
	if notes {
		return nil, scalar
	}
	// Backward propagation to a fixpoint. Relevance mostly flows from later
	// uses to earlier definitions, so sweeping the edges in reverse program
	// order usually settles in one or two passes.
	for changed := true; changed; {
		changed = false
		for i := len(a.edges) - 1; i >= 0; i-- {
			e := a.edges[i]
			if (a.rel[e.to] || !scalar[e.to]) && !a.rel[e.from] {
				a.rel[e.from] = true
				changed = true
			}
		}
	}
	faint = make(map[string]bool)
	for name, basic := range scalar {
		if basic && !a.rel[name] {
			faint[name] = true
		}
	}
	return faint, scalar
}

// relevance accumulates the seeds (rel) and the plain-assignment edges of
// the faint analysis: edge {to, from} means from's value flows into to.
type relevance struct {
	rel   map[string]bool
	edges []struct{ to, from string }
}

// observe seeds every variable e reads.
func (a *relevance) observe(e minic.Expr) {
	walkIdents(e, func(name string) { a.rel[name] = true })
}

// effect handles an expression evaluated for its effect (a statement or a
// for-loop post expression): a plain assignment or ++/-- to a named
// variable adds edges; anything else is observed.
func (a *relevance) effect(e minic.Expr) {
	switch v := e.(type) {
	case *minic.AssignExpr:
		if x, ok := v.LHS.(*minic.IdentExpr); ok {
			a.assign(x.Name, v.RHS)
			return
		}
	case *minic.IncDecExpr:
		if _, ok := v.X.(*minic.IdentExpr); ok {
			return
		}
	}
	a.observe(e)
}

// assign records to = e: the variables e reads as plain operands flow into
// to; those under an index, dereference, address-of, member access, call
// or nested assignment are observed.
func (a *relevance) assign(to string, e minic.Expr) {
	switch v := e.(type) {
	case *minic.IdentExpr:
		a.edges = append(a.edges, struct{ to, from string }{to, v.Name})
	case *minic.IntLitExpr, *minic.FloatLitExpr, *minic.StringLitExpr:
	case *minic.BinExpr:
		a.assign(to, v.L)
		a.assign(to, v.R)
	case *minic.UnExpr:
		a.assign(to, v.X)
	case *minic.CastExpr:
		a.assign(to, v.X)
	case *minic.CondExpr:
		a.assign(to, v.Cond)
		a.assign(to, v.Then)
		a.assign(to, v.Else)
	default:
		a.observe(e)
	}
}

// walkIdents calls visit with the name of every identifier e reads or
// writes.
func walkIdents(e minic.Expr, visit func(string)) {
	minic.WalkExpr(e, func(x minic.Expr) {
		if id, ok := x.(*minic.IdentExpr); ok {
			visit(id.Name)
		}
	})
}
