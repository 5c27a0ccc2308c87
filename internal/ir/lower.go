package ir

import (
	"sort"

	"privacyscope/internal/minic"
)

// LowerMiniC lowers a parsed MiniC translation unit into the analysis IR.
// Lowering is 1:1 — one op per source statement, Display rendering the
// statement on demand — so engine trace snapshots are unchanged by the IR
// migration. It first resolves the file (minic.Resolve), binding
// every identifier to its declaration and slot in place, so the file must
// not be lowered while another goroutine reads it.
func LowerMiniC(file *minic.File) *Program {
	minic.Resolve(file)
	prog := &Program{Module: file, Funcs: make(map[string]*Func, len(file.Functions))}
	for _, fn := range file.Functions {
		f := &Func{
			Name:   fn.Name,
			Params: fn.Params,
			Return: fn.Return,
			Slots:  fn.Slots,
			Pos:    fn.Pos,
		}
		if fn.Body != nil {
			f.Body = lowerBlock(fn.Body)
			walkOps(f.Body, func(op Op) {
				if r, ok := op.(*ReturnOp); ok {
					r.Type = fn.Return
				}
			})
			f.Calls = collectCalls(f.Body)
			markFaintJoins(f, file.Globals)
		}
		prog.Funcs[fn.Name] = f
	}
	return prog
}

func lowerBlock(b *minic.Block) *BlockOp {
	op := &BlockOp{
		Meta: Meta{Stmt: b, Pos: b.Pos},
		Ops:  make([]Op, 0, len(b.Stmts)),
	}
	for _, s := range b.Stmts {
		op.Ops = append(op.Ops, lowerStmt(s))
	}
	return op
}

func lowerStmt(s minic.Stmt) Op {
	meta := Meta{Stmt: s, Pos: stmtPos(s)}
	switch v := s.(type) {
	case *minic.Block:
		return lowerBlock(v)
	case *minic.EmptyStmt:
		return &EmptyOp{Meta: meta}
	case *minic.DeclStmt:
		return &DeclOp{Meta: meta, Decls: v.Decls}
	case *minic.ExprStmt:
		return &ExprOp{Meta: meta, X: v.X}
	case *minic.IfStmt:
		op := &IfOp{Meta: meta, Cond: v.Cond, Then: lowerStmt(v.Then)}
		if v.Else != nil {
			op.Else = lowerStmt(v.Else)
		}
		return op
	case *minic.WhileStmt:
		return &LoopOp{Meta: meta, Cond: v.Cond, Body: lowerStmt(v.Body)}
	case *minic.ForStmt:
		op := &LoopOp{Meta: meta, Cond: v.Cond, Post: v.Post, Body: lowerStmt(v.Body)}
		if v.Init != nil {
			op.Init = lowerStmt(v.Init)
		}
		return op
	case *minic.DoWhileStmt:
		return &LoopOp{Meta: meta, Cond: v.Cond, Body: lowerStmt(v.Body), PostTest: true}
	case *minic.SwitchStmt:
		op := &SwitchOp{Meta: meta, Tag: v.Tag, Cases: make([]SwitchCase, len(v.Cases))}
		for i, c := range v.Cases {
			body := make([]Op, len(c.Body))
			for j, cs := range c.Body {
				body[j] = lowerStmt(cs)
			}
			op.Cases[i] = SwitchCase{Value: c.Value, IsDefault: c.IsDefault, Body: body, Pos: c.Pos}
		}
		return op
	case *minic.ReturnStmt:
		return &ReturnOp{Meta: meta, X: v.X}
	case *minic.BreakStmt:
		return &BreakOp{Meta: meta}
	case *minic.ContinueStmt:
		return &ContinueOp{Meta: meta}
	default:
		// The parser cannot produce other statement forms; lower to a no-op
		// so a future AST extension degrades soft instead of crashing.
		return &EmptyOp{Meta: meta}
	}
}

func stmtPos(s minic.Stmt) minic.Pos {
	switch v := s.(type) {
	case *minic.Block:
		return v.Pos
	case *minic.EmptyStmt:
		return v.Pos
	case *minic.DeclStmt:
		return v.Pos
	case *minic.ExprStmt:
		return v.Pos
	case *minic.IfStmt:
		return v.Pos
	case *minic.WhileStmt:
		return v.Pos
	case *minic.ForStmt:
		return v.Pos
	case *minic.DoWhileStmt:
		return v.Pos
	case *minic.SwitchStmt:
		return v.Pos
	case *minic.ReturnStmt:
		return v.Pos
	case *minic.BreakStmt:
		return v.Pos
	case *minic.ContinueStmt:
		return v.Pos
	default:
		return minic.Pos{}
	}
}

// collectCalls walks the op tree and gathers the names of all syntactic
// call targets, deduplicated and sorted.
func collectCalls(body *BlockOp) []string {
	seen := map[string]bool{}
	walkOps(body, func(op Op) {
		opExprs(op, func(e minic.Expr) {
			minic.WalkExpr(e, func(x minic.Expr) {
				if c, ok := x.(*minic.CallExpr); ok {
					seen[c.Fun] = true
				}
			})
		})
	})
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// walkOps calls visit on op and every op nested in it, in program order.
func walkOps(op Op, visit func(Op)) {
	if op == nil {
		return
	}
	visit(op)
	switch v := op.(type) {
	case *BlockOp:
		for _, o := range v.Ops {
			walkOps(o, visit)
		}
	case *IfOp:
		walkOps(v.Then, visit)
		walkOps(v.Else, visit)
	case *LoopOp:
		walkOps(v.Init, visit)
		walkOps(v.Body, visit)
	case *SwitchOp:
		for _, c := range v.Cases {
			for _, o := range c.Body {
				walkOps(o, visit)
			}
		}
	}
}

// opExprs calls visit on each expression op itself evaluates (not those of
// nested ops).
func opExprs(op Op, visit func(minic.Expr)) {
	switch v := op.(type) {
	case *DeclOp:
		for _, d := range v.Decls {
			visit(d.Init)
		}
	case *ExprOp:
		visit(v.X)
	case *IfOp:
		visit(v.Cond)
	case *LoopOp:
		visit(v.Cond)
		visit(v.Post)
	case *SwitchOp:
		visit(v.Tag)
		for _, c := range v.Cases {
			visit(c.Value)
		}
	case *ReturnOp:
		visit(v.X)
	}
}
