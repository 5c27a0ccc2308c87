package priml

import (
	"fmt"
	"sort"

	"privacyscope/internal/ir"
	"privacyscope/internal/minic"
)

// This file lowers PRIML (§V-A) into the shared analysis IR, so the PS-*
// instrumented semantics run on the same symbolic engine as MiniC enclave
// code. The lowering is 1:1 and effect-preserving:
//
//   - skip lowers to nothing (the PS rules emit no trace row for it);
//   - assignments and expression statements lower to an ExprOp followed by a
//     NoteOp carrying the source statement, which the adapter's NoteHook
//     turns into a Tables II/III simulation row;
//   - conditionals lower to an IfOp whose arms each *start* with the NoteOp,
//     so a row is emitted per feasible branch after π is extended — exactly
//     the PS-TCOND/PS-FCOND row placement (and none for a pruned branch);
//   - get_secret and declassify lower to intrinsic calls the adapter
//     registers with the engine, keeping Alg. 1 outside the engine core.
//
// PRIML variables become module globals with no initializer, sorted by
// name, and every identifier is bound to its global as it is lowered; the
// engine's ZeroDefaultVars option supplies the default-zero store semantics
// without binding zeros into Δ (unassigned variables must stay out of the
// trace).

// Intrinsic names the adapter registers with the engine.
const (
	// GetSecretIntrinsic models get_secret(secret, i): the adapter memoizes
	// one fresh secret symbol per syntactic occurrence index.
	GetSecretIntrinsic = "__priml_get_secret"
	// DeclassifyIntrinsic models declassify(e) at a site: the adapter runs
	// the Alg. 1 kernel and returns the declassified value unchanged.
	DeclassifyIntrinsic = "__priml_declassify"
	// EntryFunc is the synthetic IR function holding the program body.
	EntryFunc = "__priml_main"
)

// Lowered is a PRIML program lowered to the shared analysis IR.
type Lowered struct {
	Prog *ir.Program
	// SitePos maps declassify site IDs to their source positions.
	SitePos map[int]Pos
}

// LowerPRIML lowers a PRIML program into the shared analysis IR.
func LowerPRIML(p *Program) (*Lowered, error) {
	l := &lowerer{
		vars:    make(map[string]*minic.VarDecl),
		sitePos: make(map[int]Pos),
		calls:   make(map[string]bool),
	}
	ops, err := l.stmt(p.Body)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(l.vars))
	for name := range l.vars {
		names = append(names, name)
	}
	sort.Strings(names)
	globals := make([]*minic.VarDecl, len(names))
	for i, name := range names {
		g := l.vars[name]
		g.Slot = i
		globals[i] = g
	}
	calls := make([]string, 0, len(l.calls))
	for name := range l.calls {
		calls = append(calls, name)
	}
	sort.Strings(calls)
	fn := &ir.Func{
		Name:   EntryFunc,
		Return: minic.Basic{Kind: minic.Void},
		Body:   &ir.BlockOp{Ops: ops},
		Calls:  calls,
	}
	return &Lowered{
		Prog: &ir.Program{
			Module: &minic.File{Globals: globals},
			Funcs:  map[string]*ir.Func{EntryFunc: fn},
		},
		SitePos: l.sitePos,
	}, nil
}

type lowerer struct {
	vars    map[string]*minic.VarDecl
	sitePos map[int]Pos
	calls   map[string]bool
}

// ident returns a reference to the program variable name, bound to its
// global (made on first sight; LowerPRIML numbers the slots once all are
// known).
func (l *lowerer) ident(name string, p Pos) *minic.IdentExpr {
	g, ok := l.vars[name]
	if !ok {
		g = &minic.VarDecl{Name: name, Type: minic.Basic{Kind: minic.Int}, Global: true}
		l.vars[name] = g
	}
	return &minic.IdentExpr{Name: name, Pos: mpos(p), Decl: g}
}

func mpos(p Pos) minic.Pos { return minic.Pos{Line: p.Line, Col: p.Col} }

func meta(src string, p Pos) ir.Meta { return ir.Meta{Src: src, Pos: mpos(p)} }

func (l *lowerer) stmt(s Stmt) ([]ir.Op, error) {
	switch v := s.(type) {
	case *Skip:
		return nil, nil
	case *Seq:
		var ops []ir.Op
		for _, sub := range v.Stmts {
			subOps, err := l.stmt(sub)
			if err != nil {
				return nil, err
			}
			ops = append(ops, subOps...)
		}
		return ops, nil
	case *Assign:
		rhs, err := l.exp(v.Exp)
		if err != nil {
			return nil, err
		}
		src := v.String()
		return []ir.Op{
			&ir.ExprOp{Meta: meta(src, v.Pos), X: &minic.AssignExpr{
				LHS: l.ident(v.Var, v.Pos),
				RHS: rhs,
				Pos: mpos(v.Pos),
			}},
			&ir.NoteOp{Meta: meta(src, v.Pos), Data: src},
		}, nil
	case *ExprStmt:
		x, err := l.exp(v.Exp)
		if err != nil {
			return nil, err
		}
		src := v.String()
		return []ir.Op{
			&ir.ExprOp{Meta: meta(src, v.Pos), X: x},
			&ir.NoteOp{Meta: meta(src, v.Pos), Data: src},
		}, nil
	case *If:
		cond, err := l.exp(v.Cond)
		if err != nil {
			return nil, err
		}
		src := v.String()
		thenOps, err := l.stmt(v.Then)
		if err != nil {
			return nil, err
		}
		elseOps, err := l.stmt(v.Else)
		if err != nil {
			return nil, err
		}
		note := func() ir.Op { return &ir.NoteOp{Meta: meta(src, v.Pos), Data: src} }
		return []ir.Op{&ir.IfOp{
			Meta: meta(src, v.Pos),
			Cond: cond,
			Then: &ir.BlockOp{Meta: meta(src, v.Pos), Ops: append([]ir.Op{note()}, thenOps...)},
			Else: &ir.BlockOp{Meta: meta(src, v.Pos), Ops: append([]ir.Op{note()}, elseOps...)},
		}}, nil
	default:
		return nil, fmt.Errorf("priml: analyzer: unknown statement %T", s)
	}
}

func (l *lowerer) exp(e Exp) (minic.Expr, error) {
	switch v := e.(type) {
	case *IntLit:
		return &minic.IntLitExpr{V: int64(v.V), Pos: mpos(v.Pos)}, nil
	case *Var:
		return l.ident(v.Name, v.Pos), nil
	case *Paren:
		return l.exp(v.X)
	case *GetSecret:
		l.calls[GetSecretIntrinsic] = true
		return &minic.CallExpr{
			Fun:  GetSecretIntrinsic,
			Args: []minic.Expr{&minic.IntLitExpr{V: int64(v.Index), Pos: mpos(v.Pos)}},
			Pos:  mpos(v.Pos),
		}, nil
	case *Unop:
		x, err := l.exp(v.X)
		if err != nil {
			return nil, err
		}
		return &minic.UnExpr{Op: v.Op, X: x, Pos: mpos(v.Pos)}, nil
	case *Binop:
		lhs, err := l.exp(v.L)
		if err != nil {
			return nil, err
		}
		rhs, err := l.exp(v.R)
		if err != nil {
			return nil, err
		}
		return &minic.BinExpr{Op: v.Op, L: lhs, R: rhs, Pos: mpos(v.Pos)}, nil
	case *Declassify:
		x, err := l.exp(v.X)
		if err != nil {
			return nil, err
		}
		l.sitePos[v.Site] = v.Pos
		l.calls[DeclassifyIntrinsic] = true
		return &minic.CallExpr{
			Fun: DeclassifyIntrinsic,
			Args: []minic.Expr{
				x,
				&minic.IntLitExpr{V: int64(v.Site), Pos: mpos(v.Pos)},
			},
			Pos: mpos(v.Pos),
		}, nil
	default:
		return nil, fmt.Errorf("priml: analyzer: unknown expression %T", e)
	}
}
