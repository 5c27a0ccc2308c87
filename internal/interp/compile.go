package interp

import (
	"fmt"

	"privacyscope/internal/minic"
	"privacyscope/internal/sym"
)

// The compiler turns each function into Go closures in one pass over its
// AST. Nothing is looked up while running: identifiers become frame slots
// or global indices, and static types, cell layouts, element sizes, struct
// offsets and call targets are fixed here, once. The closures charge one
// step per statement, per expression and per loop iteration, none for
// resolving an lvalue, and raise a node's errors only when it runs.

// exprFn evaluates an expression.
type exprFn func(fr *frame) (Value, error)

// placeFn resolves an object-backed lvalue to its cell.
type placeFn func(fr *frame) (*Object, int, error)

// stmtFn executes a statement; a return leaves its value in fr.ret.
type stmtFn func(fr *frame) (ctl, error)

type ctl int

const (
	ctlNext ctl = iota
	ctlReturn
	ctlBreak
	ctlContinue
)

// expr is a compiled expression and its static type.
type expr struct {
	eval exprFn
	ty   minic.Type
}

// lval is a compiled lvalue: a frame value slot (slot >= 0) or an object
// cell found by place.
type lval struct {
	ty    minic.Type
	slot  int
	kind  CellKind
	place placeFn
}

// local is a variable's storage: value slot (slot >= 0, holding a cell of
// kind) or object slot obj, whose objects have the layout kinds.
type local struct {
	ty    minic.Type
	slot  int
	kind  CellKind
	obj   int
	kinds []CellKind
	// cond marks a conditional declaration (see findObjNames).
	cond bool
	// err, when set, fails the declaration: its type has no layout.
	err error
}

// scope is one level of name resolution: a function's parameters, a
// block, or a for statement.
type scope struct {
	parent *scope
	names  []string // parallels locals
	locals []*local
	// resets lists the object slots of the scope's conditional
	// declarations, unbound each time the scope is entered.
	resets []int
}

type compiler struct {
	prog *Program
	fn   *function // nil in a global initialiser
	sc   *scope
	// objNames names the locals that live in objects even when scalar
	// (see findObjNames); nil when there are none.
	objNames map[string]bool
	// nglobals bounds global lookups: a global initialiser sees only the
	// globals declared up to and including its own.
	nglobals int
}

var (
	intType    = minic.Type(minic.Basic{Kind: minic.Int})
	doubleType = minic.Type(minic.Basic{Kind: minic.Double})
)

func (p *Program) compileFunc(fn *function) {
	c := &compiler{prog: p, fn: fn, nglobals: len(p.file.Globals)}
	findObjNames(fn.decl.Body, &c.objNames)
	c.push()
	fn.params = make([]local, len(fn.decl.Params))
	for i, p := range fn.decl.Params {
		fn.params[i] = *c.declare(p.Name, p.Type, false)
	}
	fn.body = c.block(fn.decl.Body)
	c.pop()
}

func (p *Program) compileGlobals() {
	p.globals = make([]global, len(p.file.Globals))
	for i, g := range p.file.Globals {
		p.globals[i].kinds, p.globals[i].err = objectLayout(g.Type)
		if g.Init != nil {
			c := &compiler{prog: p, nglobals: i + 1}
			p.globals[i].init = c.expr(g.Init).eval
		}
	}
}

func (c *compiler) push() { c.sc = &scope{parent: c.sc} }
func (c *compiler) pop()  { c.sc = c.sc.parent }

// declare allocates storage for a local in the current scope.
func (c *compiler) declare(name string, ty minic.Type, cond bool) *local {
	l := &local{ty: ty, slot: -1, obj: -1, cond: cond}
	if minic.IsScalar(ty) && !c.objNames[name] {
		l.slot = c.fn.nvals
		l.kind = scalarKind(ty)
		c.fn.nvals++
	} else {
		l.obj = c.fn.nobjs
		l.kinds, l.err = objectLayout(ty)
		c.fn.nobjs++
		if cond {
			c.sc.resets = append(c.sc.resets, l.obj)
		}
	}
	c.sc.names = append(c.sc.names, name)
	c.sc.locals = append(c.sc.locals, l)
	return l
}

// findObjNames records the names of the locals in s that must live in
// objects even when scalar: every name whose address is taken, and every
// name with a conditional declaration. A declaration is conditional when
// it is the whole body of an if, else or loop, or sits directly in a
// switch case: it joins the enclosing scope but may not have run when the
// name is read. Until it runs, its object slot is unbound and the name
// keeps its outer meaning; an object slot can tell, and the outer meaning
// is an object too.
func findObjNames(s minic.Stmt, names *map[string]bool) {
	mark := func(name string) {
		if *names == nil {
			*names = make(map[string]bool)
		}
		(*names)[name] = true
	}
	expr := func(e minic.Expr) {
		minic.WalkExpr(e, func(x minic.Expr) {
			if a, ok := x.(*minic.AddrExpr); ok {
				if id, ok := a.X.(*minic.IdentExpr); ok {
					mark(id.Name)
				}
			}
		})
	}
	var stmt func(s minic.Stmt)
	cond := func(s minic.Stmt) {
		if d, ok := s.(*minic.DeclStmt); ok {
			for _, d := range d.Decls {
				mark(d.Name)
			}
		}
		stmt(s)
	}
	stmt = func(s minic.Stmt) {
		switch v := s.(type) {
		case *minic.Block:
			if v == nil {
				return
			}
			for _, s := range v.Stmts {
				stmt(s)
			}
		case *minic.DeclStmt:
			for _, d := range v.Decls {
				expr(d.Init)
			}
		case *minic.ExprStmt:
			expr(v.X)
		case *minic.IfStmt:
			expr(v.Cond)
			cond(v.Then)
			cond(v.Else)
		case *minic.WhileStmt:
			expr(v.Cond)
			cond(v.Body)
		case *minic.ForStmt:
			stmt(v.Init)
			expr(v.Cond)
			expr(v.Post)
			cond(v.Body)
		case *minic.DoWhileStmt:
			cond(v.Body)
			expr(v.Cond)
		case *minic.SwitchStmt:
			expr(v.Tag)
			for _, cs := range v.Cases {
				expr(cs.Value)
				for _, s := range cs.Body {
					cond(s)
				}
			}
		case *minic.ReturnStmt:
			expr(v.X)
		}
	}
	stmt(s)
}

// block compiles a function body: a block without its own step.
func (c *compiler) block(b *minic.Block) stmtFn {
	c.push()
	stmts := c.stmts(b.Stmts)
	resets := c.sc.resets
	c.pop()
	return func(fr *frame) (ctl, error) {
		for _, i := range resets {
			fr.objs[i] = nil
		}
		for _, s := range stmts {
			if k, err := s(fr); err != nil || k != ctlNext {
				return k, err
			}
		}
		return ctlNext, nil
	}
}

func (c *compiler) stmts(ss []minic.Stmt) []stmtFn {
	out := make([]stmtFn, len(ss))
	for i, s := range ss {
		out[i] = c.stmt(s)
	}
	return out
}

// body compiles a statement in a position where a declaration is
// conditional (see findObjNames).
func (c *compiler) body(s minic.Stmt) stmtFn {
	if d, ok := s.(*minic.DeclStmt); ok {
		return c.declStmt(d, true)
	}
	return c.stmt(s)
}

func (c *compiler) stmt(s minic.Stmt) stmtFn {
	switch v := s.(type) {
	case *minic.Block:
		body := c.block(v)
		return func(fr *frame) (ctl, error) {
			if err := fr.m.step(); err != nil {
				return ctlNext, err
			}
			return body(fr)
		}
	case *minic.EmptyStmt:
		return func(fr *frame) (ctl, error) { return ctlNext, fr.m.step() }
	case *minic.DeclStmt:
		return c.declStmt(v, false)
	case *minic.ExprStmt:
		x := c.expr(v.X).eval
		return func(fr *frame) (ctl, error) {
			if err := fr.m.step(); err != nil {
				return ctlNext, err
			}
			_, err := x(fr)
			return ctlNext, err
		}
	case *minic.IfStmt:
		cond := c.expr(v.Cond).eval
		then := c.body(v.Then)
		var els stmtFn
		if v.Else != nil {
			els = c.body(v.Else)
		}
		return func(fr *frame) (ctl, error) {
			if err := fr.m.step(); err != nil {
				return ctlNext, err
			}
			cv, err := cond(fr)
			if err != nil {
				return ctlNext, err
			}
			if !cv.IsZero() {
				return then(fr)
			}
			if els != nil {
				return els(fr)
			}
			return ctlNext, nil
		}
	case *minic.WhileStmt:
		cond := c.expr(v.Cond).eval
		return loop(nil, cond, false, c.body(v.Body), nil, nil)
	case *minic.ForStmt:
		c.push()
		defer c.pop()
		var init stmtFn
		if v.Init != nil {
			init = c.stmt(v.Init)
		}
		var cond, post exprFn
		if v.Cond != nil {
			cond = c.expr(v.Cond).eval
		}
		body := c.body(v.Body)
		if v.Post != nil {
			post = c.expr(v.Post).eval
		}
		return loop(init, cond, false, body, post, c.sc.resets)
	case *minic.DoWhileStmt:
		body := c.body(v.Body)
		return loop(nil, c.expr(v.Cond).eval, true, body, nil, nil)
	case *minic.SwitchStmt:
		return c.switchStmt(v)
	case *minic.ReturnStmt:
		if v.X == nil {
			return func(fr *frame) (ctl, error) {
				if err := fr.m.step(); err != nil {
					return ctlNext, err
				}
				fr.ret = IntValue(0)
				return ctlReturn, nil
			}
		}
		x := c.expr(v.X).eval
		ret := c.fn.decl.Return
		return func(fr *frame) (ctl, error) {
			if err := fr.m.step(); err != nil {
				return ctlNext, err
			}
			val, err := x(fr)
			if err != nil {
				return ctlNext, err
			}
			fr.ret = coerceToType(val, ret)
			return ctlReturn, nil
		}
	case *minic.BreakStmt:
		return func(fr *frame) (ctl, error) { return ctlBreak, fr.m.step() }
	case *minic.ContinueStmt:
		return func(fr *frame) (ctl, error) { return ctlContinue, fr.m.step() }
	}
	err := fmt.Errorf("interp: unknown statement %T", s)
	return func(fr *frame) (ctl, error) {
		if e := fr.m.step(); e != nil {
			return ctlNext, e
		}
		return ctlNext, err
	}
}

// declStmt declares each variable before compiling its initialiser, so an
// initialiser sees the variable it initialises. Running the declaration
// zeroes a slot, or binds a fresh object, before the initialiser runs.
func (c *compiler) declStmt(v *minic.DeclStmt, cond bool) stmtFn {
	type decl struct {
		name string
		l    *local
		init exprFn
	}
	decls := make([]decl, len(v.Decls))
	for i, d := range v.Decls {
		decls[i] = decl{name: d.Name, l: c.declare(d.Name, d.Type, cond)}
		if d.Init != nil {
			decls[i].init = c.expr(d.Init).eval
		}
	}
	return func(fr *frame) (ctl, error) {
		if err := fr.m.step(); err != nil {
			return ctlNext, err
		}
		for _, d := range decls {
			if d.l.slot >= 0 {
				fr.vals[d.l.slot] = zeroOf(d.l.kind)
				if d.init != nil {
					val, err := d.init(fr)
					if err != nil {
						return ctlNext, err
					}
					fr.vals[d.l.slot] = coerce(val, d.l.kind)
				}
				continue
			}
			if d.l.err != nil {
				return ctlNext, d.l.err
			}
			obj := newObject(d.name, d.l.kinds)
			fr.objs[d.l.obj] = obj
			if d.init != nil {
				val, err := d.init(fr)
				if err != nil {
					return ctlNext, err
				}
				if err := obj.Store(0, val); err != nil {
					return ctlNext, err
				}
			}
		}
		return ctlNext, nil
	}
}

// loop runs while, do-while and for loops: one step for the statement and
// one per iteration. A for statement unbinds its scope's conditional
// declarations (resets) and runs init first; a nil cond always holds; a
// do-while tests cond after the body, the others before it.
func loop(init stmtFn, cond exprFn, condLast bool, body stmtFn, post exprFn, resets []int) stmtFn {
	return func(fr *frame) (ctl, error) {
		m := fr.m
		if err := m.step(); err != nil {
			return ctlNext, err
		}
		for _, i := range resets {
			fr.objs[i] = nil
		}
		if init != nil {
			if _, err := init(fr); err != nil {
				return ctlNext, err
			}
		}
		for {
			if err := m.step(); err != nil {
				return ctlNext, err
			}
			if cond != nil && !condLast {
				if cv, err := cond(fr); err != nil || cv.IsZero() {
					return ctlNext, err
				}
			}
			k, err := body(fr)
			if err != nil || k == ctlReturn {
				return k, err
			}
			if k == ctlBreak {
				return ctlNext, nil
			}
			if condLast {
				if cv, err := cond(fr); err != nil || cv.IsZero() {
					return ctlNext, err
				}
			}
			if post != nil {
				if _, err := post(fr); err != nil {
					return ctlNext, err
				}
			}
		}
	}
}

// switchStmt evaluates a C switch with fallthrough: execution starts at
// the first matching case (or default) and runs through subsequent cases
// until a break. Case bodies share the enclosing scope, and their
// declarations are conditional.
func (c *compiler) switchStmt(v *minic.SwitchStmt) stmtFn {
	tag := c.expr(v.Tag).eval
	type swCase struct {
		value     exprFn
		isDefault bool
		body      []stmtFn
	}
	cases := make([]swCase, len(v.Cases))
	for i, cs := range v.Cases {
		cases[i].isDefault = cs.IsDefault
		if !cs.IsDefault {
			cases[i].value = c.expr(cs.Value).eval
		}
		cases[i].body = make([]stmtFn, len(cs.Body))
		for j, s := range cs.Body {
			cases[i].body[j] = c.body(s)
		}
	}
	return func(fr *frame) (ctl, error) {
		if err := fr.m.step(); err != nil {
			return ctlNext, err
		}
		tv, err := tag(fr)
		if err != nil {
			return ctlNext, err
		}
		entry, defaultIdx := -1, -1
		for i, cs := range cases {
			if cs.isDefault {
				defaultIdx = i
				continue
			}
			cv, err := cs.value(fr)
			if err != nil {
				return ctlNext, err
			}
			if cv.Int() == tv.Int() {
				entry = i
				break
			}
		}
		if entry < 0 {
			entry = defaultIdx
		}
		if entry < 0 {
			return ctlNext, nil
		}
		for _, cs := range cases[entry:] {
			for _, s := range cs.body {
				k, err := s(fr)
				if err != nil {
					return ctlNext, err
				}
				switch k {
				case ctlReturn, ctlContinue:
					// continue binds to the enclosing loop.
					return k, nil
				case ctlBreak:
					return ctlNext, nil
				}
			}
		}
		return ctlNext, nil
	}
}

// isLvalueNode reports whether e is a node kind lvalue resolves; any other
// expression fails as "not an lvalue" before evaluating anything.
func isLvalueNode(e minic.Expr) bool {
	switch e.(type) {
	case *minic.IdentExpr, *minic.IndexExpr, *minic.MemberExpr, *minic.DerefExpr:
		return true
	}
	return false
}

// lvalue compiles e as an assignable location. Resolving a location costs
// no step of its own; the expressions inside it do.
func (c *compiler) lvalue(e minic.Expr) lval {
	switch v := e.(type) {
	case *minic.IdentExpr:
		return c.ident(v)
	case *minic.IndexExpr:
		return c.indexPlace(v)
	case *minic.DerefExpr:
		x := c.expr(v.X)
		elem, _ := minic.ElemType(x.ty)
		if elem == nil {
			elem = intType
		}
		return lval{ty: elem, slot: -1, place: deref(x.eval, v.Pos)}
	case *minic.MemberExpr:
		return c.memberPlace(v)
	}
	err := fmt.Errorf("interp: not an lvalue: %T", e)
	return lval{ty: intType, slot: -1, place: func(*frame) (*Object, int, error) { return nil, 0, err }}
}

func (c *compiler) ident(v *minic.IdentExpr) lval { return c.identFrom(c.sc, v) }

// identFrom resolves v from scope sc outwards, then among the globals.
func (c *compiler) identFrom(sc *scope, v *minic.IdentExpr) lval {
	for ; sc != nil; sc = sc.parent {
		// The last declaration of a name in a scope wins.
		k := len(sc.names) - 1
		for k >= 0 && sc.names[k] != v.Name {
			k--
		}
		if k < 0 {
			continue
		}
		l := sc.locals[k]
		if l.slot >= 0 {
			return lval{ty: l.ty, slot: l.slot, kind: l.kind}
		}
		i := l.obj
		if !l.cond {
			return lval{ty: l.ty, slot: -1, place: func(fr *frame) (*Object, int, error) { return fr.objs[i], 0, nil }}
		}
		// Until the declaration runs, the name means what it meant
		// outside this scope.
		outer := c.identFrom(sc.parent, v).place
		return lval{ty: l.ty, slot: -1, place: func(fr *frame) (*Object, int, error) {
			if o := fr.objs[i]; o != nil {
				return o, 0, nil
			}
			return outer(fr)
		}}
	}
	// The last global declaration wins; a global initialiser sees only
	// the globals declared up to its own.
	g := c.nglobals - 1
	for g >= 0 && c.prog.file.Globals[g].Name != v.Name {
		g--
	}
	if g < 0 {
		return lval{ty: intType, slot: -1, place: func(*frame) (*Object, int, error) { return nil, 0, undeclared(v) }}
	}
	return lval{ty: c.prog.file.Globals[g].Type, slot: -1, place: func(fr *frame) (*Object, int, error) {
		if o := fr.m.globals[g]; o != nil {
			return o, 0, nil
		}
		// A function called from an earlier global's initialiser.
		return nil, 0, undeclared(v)
	}}
}

func undeclared(v *minic.IdentExpr) error {
	return &minic.Error{Pos: v.Pos, Msg: "undeclared identifier " + v.Name}
}

// indexPlace compiles X[Index]. An array lvalue X indexes within its own
// object; otherwise X is evaluated as a pointer. A non-array X that is an
// lvalue other than a plain identifier is first resolved once for its
// effects, steps included, and then evaluated: the step golden
// (steps_test.go) pins that cost.
func (c *compiler) indexPlace(v *minic.IndexExpr) lval {
	idx := c.expr(v.Index).eval
	if !isLvalueNode(v.X) {
		ptr, ty := c.ptrIndex(c.expr(v.X), v.Pos)
		return lval{ty: ty, slot: -1, place: func(fr *frame) (*Object, int, error) {
			iv, err := idx(fr)
			if err != nil {
				return nil, 0, err
			}
			return ptr(fr, int(iv.Int()))
		}}
	}
	xl := c.lvalue(v.X)
	ptr, ty := c.ptrIndex(c.rvalue(xl), v.Pos)
	if arr, ok := xl.ty.(minic.Array); ok {
		sz := cellsOf(arr.Elem)
		return lval{ty: arr.Elem, slot: -1, place: func(fr *frame) (*Object, int, error) {
			iv, err := idx(fr)
			if err != nil {
				return nil, 0, err
			}
			i := int(iv.Int())
			if o, off, err := xl.place(fr); err == nil {
				return o, off + i*sz, nil
			}
			return ptr(fr, i)
		}}
	}
	effects := xl.place
	if _, ok := v.X.(*minic.IdentExpr); ok {
		effects = nil
	}
	return lval{ty: ty, slot: -1, place: func(fr *frame) (*Object, int, error) {
		iv, err := idx(fr)
		if err != nil {
			return nil, 0, err
		}
		if effects != nil {
			_, _, _ = effects(fr)
		}
		return ptr(fr, int(iv.Int()))
	}}
}

// deref compiles following the pointer x evaluates to.
func deref(x exprFn, pos minic.Pos) placeFn {
	return func(fr *frame) (*Object, int, error) {
		val, err := x(fr)
		if err != nil {
			return nil, 0, err
		}
		if val.ptr.Obj == nil {
			return nil, 0, fmt.Errorf("%w at %s", ErrNilDeref, pos)
		}
		return val.ptr.Obj, val.ptr.Off, nil
	}
}

// ptrIndex compiles indexing through the pointer x evaluates to.
func (c *compiler) ptrIndex(x expr, pos minic.Pos) (func(fr *frame, i int) (*Object, int, error), minic.Type) {
	base := deref(x.eval, pos)
	elem, ok := minic.ElemType(x.ty)
	if !ok {
		nonPtr := &minic.Error{Pos: pos, Msg: "indexing a non-pointer"}
		return func(fr *frame, _ int) (*Object, int, error) {
			if _, _, err := base(fr); err != nil {
				return nil, 0, err
			}
			return nil, 0, nonPtr
		}, intType
	}
	sz := cellsOf(elem)
	return func(fr *frame, i int) (*Object, int, error) {
		o, off, err := base(fr)
		return o, off + i*sz, err
	}, elem
}

// memberPlace compiles X.Field and X->Field.
func (c *compiler) memberPlace(v *minic.MemberExpr) lval {
	var base placeFn
	var baseTy minic.Type
	pos := v.Pos
	if v.Arrow {
		x := c.expr(v.X)
		baseTy, _ = minic.ElemType(x.ty)
		base = deref(x.eval, pos)
	} else {
		xl := c.lvalue(v.X)
		baseTy, base = xl.ty, xl.place
		if base == nil { // a scalar slot: no effects, never a struct
			base = func(*frame) (*Object, int, error) { return nil, 0, nil }
		}
	}
	var fieldErr error
	var off int
	var fty minic.Type = intType
	if st, ok := baseTy.(*minic.StructType); !ok {
		fieldErr = &minic.Error{Pos: pos, Msg: "member access on non-struct"}
	} else if o, t, ok := fieldOffset(st, v.Field); !ok {
		fieldErr = &minic.Error{Pos: pos, Msg: "no field " + v.Field + " in " + st.Name}
	} else {
		off, fty = o, t
	}
	if fieldErr != nil {
		return lval{ty: fty, slot: -1, place: func(fr *frame) (*Object, int, error) {
			if _, _, err := base(fr); err != nil {
				return nil, 0, err
			}
			return nil, 0, fieldErr
		}}
	}
	return lval{ty: fty, slot: -1, place: func(fr *frame) (*Object, int, error) {
		o, boff, err := base(fr)
		if err != nil {
			return nil, 0, err
		}
		return o, boff + off, nil
	}}
}

// rvalue reads an lvalue: arrays decay to a pointer to their first
// element, a struct reads as a pointer to itself (there is no struct
// copying in this model), and a scalar loads its cell.
func (c *compiler) rvalue(l lval) expr {
	switch ty := l.ty.(type) {
	case minic.Array:
		return expr{ty: minic.Pointer{Elem: ty.Elem}, eval: c.addrOf(l)}
	case *minic.StructType:
		return expr{ty: minic.Pointer{Elem: ty}, eval: c.addrOf(l)}
	}
	if l.slot >= 0 {
		s := l.slot
		return expr{ty: l.ty, eval: func(fr *frame) (Value, error) {
			if err := fr.m.step(); err != nil {
				return Value{}, err
			}
			return fr.vals[s], nil
		}}
	}
	place := l.place
	return expr{ty: l.ty, eval: func(fr *frame) (Value, error) {
		if err := fr.m.step(); err != nil {
			return Value{}, err
		}
		o, off, err := place(fr)
		if err != nil {
			return Value{}, err
		}
		return o.Load(off)
	}}
}

// addrOf evaluates to a pointer to an object-backed lvalue.
func (c *compiler) addrOf(l lval) exprFn {
	place := l.place
	if place == nil {
		// Only scalars whose address is never taken live in slots.
		panic("interp: address of a slot variable")
	}
	return func(fr *frame) (Value, error) {
		if err := fr.m.step(); err != nil {
			return Value{}, err
		}
		o, off, err := place(fr)
		if err != nil {
			return Value{}, err
		}
		return PtrValue(Pointer{Obj: o, Off: off}), nil
	}
}

func (c *compiler) expr(e minic.Expr) expr {
	switch v := e.(type) {
	case *minic.IntLitExpr:
		val := IntValue(v.V)
		return expr{ty: intType, eval: func(fr *frame) (Value, error) { return val, fr.m.step() }}
	case *minic.FloatLitExpr:
		val := FloatValue(v.V)
		return expr{ty: doubleType, eval: func(fr *frame) (Value, error) { return val, fr.m.step() }}
	case *minic.StringLitExpr:
		// Strings materialize as a fresh char buffer per evaluation.
		s := v.V
		return expr{ty: minic.Pointer{Elem: minic.Basic{Kind: minic.Char}}, eval: func(fr *frame) (Value, error) {
			if err := fr.m.step(); err != nil {
				return Value{}, err
			}
			obj := NewBuffer("strlit", CellChar, len(s)+1)
			for i := 0; i < len(s); i++ {
				obj.cells[i] = CharValue(int64(s[i]))
			}
			return PtrValue(Pointer{Obj: obj}), nil
		}}
	case *minic.IdentExpr, *minic.IndexExpr, *minic.MemberExpr, *minic.DerefExpr:
		return c.rvalue(c.lvalue(e))
	case *minic.AddrExpr:
		l := c.lvalue(v.X)
		return expr{ty: minic.Pointer{Elem: l.ty}, eval: c.addrOf(l)}
	case *minic.AssignExpr:
		return c.assign(v)
	case *minic.IncDecExpr:
		return c.incDec(v)
	case *minic.UnExpr:
		return c.unary(v)
	case *minic.BinExpr:
		return c.binary(v)
	case *minic.CondExpr:
		cond, then, els := c.expr(v.Cond).eval, c.expr(v.Then), c.expr(v.Else)
		ty := then.ty
		if _, ok := els.ty.(minic.Pointer); ok {
			ty = els.ty
		}
		if _, ok := then.ty.(minic.Pointer); ok {
			ty = then.ty
		}
		return expr{ty: ty, eval: func(fr *frame) (Value, error) {
			if err := fr.m.step(); err != nil {
				return Value{}, err
			}
			cv, err := cond(fr)
			if err != nil {
				return Value{}, err
			}
			if !cv.IsZero() {
				return then.eval(fr)
			}
			return els.eval(fr)
		}}
	case *minic.CastExpr:
		x, to := c.expr(v.X).eval, v.To
		return expr{ty: to, eval: func(fr *frame) (Value, error) {
			if err := fr.m.step(); err != nil {
				return Value{}, err
			}
			val, err := x(fr)
			if err != nil {
				return Value{}, err
			}
			return coerceToType(val, to), nil
		}}
	case *minic.SizeofExpr:
		return c.sizeof(v)
	case *minic.CallExpr:
		return c.call(v)
	}
	err := fmt.Errorf("interp: unknown expression %T", e)
	return expr{ty: intType, eval: func(fr *frame) (Value, error) {
		if e := fr.m.step(); e != nil {
			return Value{}, e
		}
		return Value{}, err
	}}
}

// sizeof compiles sizeof(Type) and sizeof expr; the latter evaluates its
// operand, effects and steps included. A self-containing type has no
// size.
func (c *compiler) sizeof(v *minic.SizeofExpr) expr {
	var x exprFn
	ty := v.Ty
	if ty == nil {
		operand := c.expr(v.X)
		x, ty = operand.eval, operand.ty
	}
	var val Value
	var err error
	if cellsOf(ty) < 0 {
		err = fmt.Errorf("%w: sizeof %s", ErrTooLarge, ty)
	} else {
		val = IntValue(int64(minic.SizeOf(ty)))
	}
	return expr{ty: intType, eval: func(fr *frame) (Value, error) {
		if e := fr.m.step(); e != nil {
			return Value{}, e
		}
		if x != nil {
			if _, e := x(fr); e != nil {
				return Value{}, e
			}
		}
		return val, err
	}}
}

// ptrStep moves pointer p by n elements of sz cells.
func ptrStep(p Value, n int64, sz int) Value {
	return PtrValue(Pointer{Obj: p.ptr.Obj, Off: p.ptr.Off + int(n)*sz})
}

// arith applies a binary operator at pos; p + n and p - n on a pointer p
// step by elements of sz cells.
func arith(op sym.Op, l, r Value, sz int, pos minic.Pos) (Value, error) {
	if l.kind == CellPtr && (op == sym.OpAdd || op == sym.OpSub) {
		n := r.Int()
		if op == sym.OpSub {
			n = -n
		}
		return ptrStep(l, n, sz), nil
	}
	out, err := applyBinary(op, l, r)
	if err != nil {
		return Value{}, fmt.Errorf("%w at %s", err, pos)
	}
	return out, nil
}

// elemCells is the size in cells of what a pointer of type t points to, 1
// when t is not a pointer.
func elemCells(t minic.Type) int {
	if elem, ok := minic.ElemType(t); ok && elem != nil {
		return cellsOf(elem)
	}
	return 1
}

func (c *compiler) assign(v *minic.AssignExpr) expr {
	l := c.lvalue(v.LHS)
	rhs := c.expr(v.RHS).eval
	op, pos, sz := v.Op, v.Pos, elemCells(l.ty)
	if l.slot >= 0 {
		s, kind := l.slot, l.kind
		return expr{ty: l.ty, eval: func(fr *frame) (Value, error) {
			if err := fr.m.step(); err != nil {
				return Value{}, err
			}
			r, err := rhs(fr)
			if err != nil {
				return Value{}, err
			}
			if op != 0 {
				if r, err = arith(op, fr.vals[s], r, sz, pos); err != nil {
					return Value{}, err
				}
			}
			r = coerce(r, kind)
			fr.vals[s] = r
			return r, nil
		}}
	}
	place := l.place
	return expr{ty: l.ty, eval: func(fr *frame) (Value, error) {
		if err := fr.m.step(); err != nil {
			return Value{}, err
		}
		o, off, err := place(fr)
		if err != nil {
			return Value{}, err
		}
		r, err := rhs(fr)
		if err != nil {
			return Value{}, err
		}
		if op != 0 {
			cur, err := o.Load(off)
			if err != nil {
				return Value{}, err
			}
			if r, err = arith(op, cur, r, sz, pos); err != nil {
				return Value{}, err
			}
		}
		if err := o.Store(off, r); err != nil {
			return Value{}, err
		}
		return o.cells[off], nil
	}}
}

func (c *compiler) incDec(v *minic.IncDecExpr) expr {
	l := c.lvalue(v.X)
	delta := int32(1)
	if v.Decr {
		delta = -1
	}
	sz, prefix := elemCells(l.ty), v.Prefix
	next := func(old Value) Value {
		if old.kind == CellPtr {
			return ptrStep(old, int64(delta), sz)
		}
		out, _ := sym.ApplyBinary(sym.OpAdd, old.num(), sym.IntVal(delta))
		return numValue(out)
	}
	if l.slot >= 0 {
		s, kind := l.slot, l.kind
		return expr{ty: l.ty, eval: func(fr *frame) (Value, error) {
			if err := fr.m.step(); err != nil {
				return Value{}, err
			}
			old := fr.vals[s]
			fr.vals[s] = coerce(next(old), kind)
			if prefix {
				return fr.vals[s], nil
			}
			return old, nil
		}}
	}
	place := l.place
	return expr{ty: l.ty, eval: func(fr *frame) (Value, error) {
		if err := fr.m.step(); err != nil {
			return Value{}, err
		}
		o, off, err := place(fr)
		if err != nil {
			return Value{}, err
		}
		old, err := o.Load(off)
		if err != nil {
			return Value{}, err
		}
		if err := o.Store(off, next(old)); err != nil {
			return Value{}, err
		}
		if prefix {
			return o.cells[off], nil
		}
		return old, nil
	}}
}

func (c *compiler) unary(v *minic.UnExpr) expr {
	x := c.expr(v.X)
	op := v.Op
	ty := intType
	if op == sym.OpNeg {
		ty = x.ty
	}
	return expr{ty: ty, eval: func(fr *frame) (Value, error) {
		if err := fr.m.step(); err != nil {
			return Value{}, err
		}
		val, err := x.eval(fr)
		if err != nil {
			return Value{}, err
		}
		if val.kind == CellPtr {
			if op != sym.OpLNot {
				return Value{}, fmt.Errorf("interp: bad pointer operation %v", op)
			}
			return boolValue(val.ptr.IsNil()), nil
		}
		out, err := sym.ApplyUnary(op, val.num())
		return numValue(out), opError(op, err)
	}}
}

func (c *compiler) binary(v *minic.BinExpr) expr {
	l, r := c.expr(v.L), c.expr(v.R)
	op, pos := v.Op, v.Pos
	switch op {
	case sym.OpLAnd, sym.OpLOr:
		// Short-circuit: the right operand runs only when it decides.
		stopOn := op == sym.OpLOr
		return expr{ty: intType, eval: func(fr *frame) (Value, error) {
			if err := fr.m.step(); err != nil {
				return Value{}, err
			}
			lv, err := l.eval(fr)
			if err != nil {
				return Value{}, err
			}
			if !lv.IsZero() == stopOn {
				return boolValue(stopOn), nil
			}
			rv, err := r.eval(fr)
			if err != nil {
				return Value{}, err
			}
			return boolValue(!rv.IsZero()), nil
		}}
	}
	ty := intType
	switch {
	case (op == sym.OpAdd || op == sym.OpSub) && isPointer(l.ty):
		ty = l.ty
	case op.IsComparison():
	case minic.IsFloatType(l.ty) || minic.IsFloatType(r.ty):
		ty = doubleType
	}
	sz := elemCells(l.ty)
	return expr{ty: ty, eval: func(fr *frame) (Value, error) {
		if err := fr.m.step(); err != nil {
			return Value{}, err
		}
		lv, err := l.eval(fr)
		if err != nil {
			return Value{}, err
		}
		rv, err := r.eval(fr)
		if err != nil {
			return Value{}, err
		}
		return arith(op, lv, rv, sz, pos)
	}}
}

func isPointer(t minic.Type) bool {
	_, ok := t.(minic.Pointer)
	return ok
}

// call compiles a call: to the file's function of that name when it has a
// body, else to a builtin.
func (c *compiler) call(v *minic.CallExpr) expr {
	fn := c.prog.function(v.Fun)
	if fn == nil || fn.decl.Body == nil {
		return c.builtin(v)
	}
	args := c.args(v.Args)
	return expr{ty: fn.decl.Return, eval: func(fr *frame) (Value, error) {
		m := fr.m
		if err := m.step(); err != nil {
			return Value{}, err
		}
		var buf [4]Value
		vals, err := evalArgs(fr, args, buf[:0])
		if err != nil {
			return Value{}, err
		}
		return m.call(fn, vals)
	}}
}

func (c *compiler) args(as []minic.Expr) []exprFn {
	out := make([]exprFn, len(as))
	for i, a := range as {
		out[i] = c.expr(a).eval
	}
	return out
}

// evalArgs evaluates args left to right, appending to buf.
func evalArgs(fr *frame, args []exprFn, buf []Value) ([]Value, error) {
	for _, a := range args {
		v, err := a(fr)
		if err != nil {
			return nil, err
		}
		buf = append(buf, v)
	}
	return buf, nil
}
