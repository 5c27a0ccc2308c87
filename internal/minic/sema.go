package minic

import (
	"fmt"
	"strings"

	"privacyscope/internal/sym"
)

// DefaultBuiltins lists library functions the analysis engines give
// semantics to (sym's math builtins, memory and the SGX/IPP intrinsics of
// §VI-B). Code may call them without defining them.
var DefaultBuiltins = append(sym.MathNames(),
	"memcpy", "memset", "malloc", "free", "rand", "srand", "printf",
	"sgx_rijndael128GCM_decrypt", "sgx_rijndael128GCM_encrypt",
	"sgx_read_rand", "ocall_print",
)

// CheckError aggregates semantic errors found in one file.
type CheckError struct {
	Errs []*Error
}

// Error implements error.
func (e *CheckError) Error() string {
	msgs := make([]string, len(e.Errs))
	for i, err := range e.Errs {
		msgs[i] = err.Error()
	}
	return strings.Join(msgs, "; ")
}

// Checker performs name resolution and structural checks over a parsed
// file: undeclared identifiers, unknown call targets, duplicate
// declarations in a scope, break/continue outside loops, and structs that
// contain themselves by value. It is deliberately lenient about numeric
// conversions, as C is.
type Checker struct {
	builtins map[string]bool
}

// NewChecker returns a checker that accepts calls to the given builtin
// functions in addition to functions defined in the file.
func NewChecker(builtins []string) *Checker {
	m := make(map[string]bool, len(builtins))
	for _, b := range builtins {
		m[b] = true
	}
	return &Checker{builtins: m}
}

// Check validates the file; it returns a *CheckError listing every problem
// found, or nil. Like Resolve, it binds the file's identifiers.
func (c *Checker) Check(f *File) error {
	cc := &checkCtx{builtins: c.builtins, report: true, file: f}
	cc.structCycles()
	cc.walk()
	if len(cc.errs) > 0 {
		return &CheckError{Errs: cc.errs}
	}
	return nil
}

// Resolve binds every identifier of f to the declaration it names and
// gives every variable its slot, under the checker's scope rules: a block,
// a for header and each switch case open a scope, and a declaration's Init
// is resolved before the declaration itself. A file already checked or
// resolved is not walked again. A global's slot is its index
// in f.Globals. A param's or local's slot is per function and keyed by
// (name, shadowing depth), the depth counting the same-named variables
// visible from enclosing scopes of the function: sibling redeclarations,
// such as two for (int i …) loops, share a slot, while a nested shadow gets
// its own. The analysis engine keeps one region per frame slot, so no name
// is looked up while it explores. Resolve reports nothing; run Check for
// errors.
func Resolve(f *File) {
	if !f.resolved {
		(&checkCtx{file: f}).walk()
	}
}

// walk runs the scope walk over the globals and function bodies and marks
// the file resolved.
func (c *checkCtx) walk() {
	f := c.file
	f.resolved = true
	c.funcs = make(map[string]*FuncDecl, len(f.Functions))
	for _, fn := range f.Functions {
		if prev, dup := c.funcs[fn.Name]; dup && prev.Body != nil && fn.Body != nil {
			c.errorf(fn.Pos, "duplicate function %s", fn.Name)
		}
		c.funcs[fn.Name] = fn
	}
	globals := &scope{}
	for i, g := range f.Globals {
		g.Global, g.Slot = true, i
		if prev, dup := globals.vars[g.Name]; dup {
			g.Slot = prev.Slot
			c.errorf(g.Pos, "duplicate global %s", g.Name)
		} else {
			globals.bind(g)
		}
		if g.Init != nil {
			c.expr(g.Init, globals, 0)
		}
	}
	for _, fn := range f.Functions {
		if fn.Body == nil {
			continue
		}
		c.slots = c.slots[:0]
		sc := &scope{parent: globals, local: true}
		for _, p := range fn.Params {
			p.Slot = c.slot(p.Name, 0)
			if p.Name == "" {
				continue
			}
			if !sc.declare(p) {
				c.errorf(p.Pos, "duplicate parameter %s in %s", p.Name, fn.Name)
			}
		}
		c.block(fn.Body, sc, 0)
		fn.Slots = len(c.slots)
	}
}

// structCycles reports every struct that contains itself by value —
// directly, through other structs, or through arrays of either. Such a type
// has no size: SizeOf and the engines' layouts would recurse on it without
// end. A pointer member breaks the cycle and stays legal.
func (c *checkCtx) structCycles() {
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[*StructType]int, len(c.file.Structs))
	var visit func(st *StructType)
	visit = func(st *StructType) {
		state[st] = visiting
		for _, fld := range st.Fields {
			inner := byValueStruct(fld.Type)
			switch {
			case inner == nil:
			case state[inner] == visiting:
				c.errorf(fld.Pos, "struct %s contains itself by value through field %s.%s (use a pointer)",
					inner.Name, st.Name, fld.Name)
			case state[inner] == 0:
				visit(inner)
			}
		}
		state[st] = done
	}
	for _, st := range c.file.Structs {
		if state[st] == 0 {
			visit(st)
		}
	}
}

// byValueStruct returns the struct a member of type t embeds by value, or
// nil when it embeds none (scalars, pointers).
func byValueStruct(t Type) *StructType {
	for {
		switch v := t.(type) {
		case Array:
			t = v.Elem
		case *StructType:
			return v
		default:
			return nil
		}
	}
}

// scope is one lexical scope of the walk. Its map is made on the first
// declaration, so a block that declares nothing costs none.
type scope struct {
	parent *scope
	// local marks a function scope (params, blocks, for headers, cases).
	local bool
	vars  map[string]*VarDecl
}

func (s *scope) bind(d *VarDecl) {
	if s.vars == nil {
		s.vars = make(map[string]*VarDecl)
	}
	s.vars[d.Name] = d
}

// declare binds d in s and reports whether s had no variable of that name.
// A same-scope duplicate takes over the name: it shares the first one's
// slot, as its depth is the same.
func (s *scope) declare(d *VarDecl) bool {
	_, dup := s.vars[d.Name]
	s.bind(d)
	return !dup
}

func (s *scope) lookup(name string) (*VarDecl, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if d, ok := sc.vars[name]; ok {
			return d, true
		}
	}
	return nil, false
}

// depth counts the function scopes enclosing s that bind name.
func (s *scope) depth(name string) int {
	n := 0
	for sc := s.parent; sc != nil && sc.local; sc = sc.parent {
		if _, ok := sc.vars[name]; ok {
			n++
		}
	}
	return n
}

type slotKey struct {
	name  string
	depth int
}

type checkCtx struct {
	// builtins are the callable library functions; report turns on the
	// error list (Resolve leaves it off and checks no call targets).
	builtins map[string]bool
	report   bool
	file     *File
	funcs    map[string]*FuncDecl
	errs     []*Error
	// slots lists the current function's slot keys; a key's index is its
	// slot.
	slots []slotKey
}

// slot returns the current function's slot for (name, depth), adding it
// on first use.
func (c *checkCtx) slot(name string, depth int) int {
	k := slotKey{name, depth}
	for i, have := range c.slots {
		if have == k {
			return i
		}
	}
	c.slots = append(c.slots, k)
	return len(c.slots) - 1
}

func (c *checkCtx) errorf(pos Pos, format string, args ...any) {
	if c.report {
		c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

func (c *checkCtx) block(b *Block, outer *scope, loopDepth int) {
	sc := &scope{parent: outer, local: true}
	for _, s := range b.Stmts {
		c.stmt(s, sc, loopDepth)
	}
}

func (c *checkCtx) stmt(s Stmt, sc *scope, loopDepth int) {
	switch v := s.(type) {
	case *Block:
		c.block(v, sc, loopDepth)
	case *EmptyStmt:
	case *DeclStmt:
		for _, d := range v.Decls {
			if d.Init != nil {
				c.expr(d.Init, sc, loopDepth)
			}
			d.Slot = c.slot(d.Name, sc.depth(d.Name))
			if !sc.declare(d) {
				c.errorf(d.Pos, "duplicate declaration of %s", d.Name)
			}
		}
	case *ExprStmt:
		c.expr(v.X, sc, loopDepth)
	case *IfStmt:
		c.expr(v.Cond, sc, loopDepth)
		c.stmt(v.Then, sc, loopDepth)
		if v.Else != nil {
			c.stmt(v.Else, sc, loopDepth)
		}
	case *WhileStmt:
		c.expr(v.Cond, sc, loopDepth)
		c.stmt(v.Body, sc, loopDepth+1)
	case *DoWhileStmt:
		c.stmt(v.Body, sc, loopDepth+1)
		c.expr(v.Cond, sc, loopDepth)
	case *SwitchStmt:
		c.expr(v.Tag, sc, loopDepth)
		defaults := 0
		for _, cs := range v.Cases {
			if cs.IsDefault {
				defaults++
				if defaults > 1 {
					c.errorf(cs.Pos, "multiple default cases in switch")
				}
			} else {
				c.expr(cs.Value, sc, loopDepth)
			}
			inner := &scope{parent: sc, local: true}
			for _, s := range cs.Body {
				// break binds to the switch: allow it in case bodies.
				c.stmt(s, inner, loopDepth+1)
			}
		}
	case *ForStmt:
		inner := &scope{parent: sc, local: true}
		if v.Init != nil {
			c.stmt(v.Init, inner, loopDepth)
		}
		if v.Cond != nil {
			c.expr(v.Cond, inner, loopDepth)
		}
		if v.Post != nil {
			c.expr(v.Post, inner, loopDepth)
		}
		c.stmt(v.Body, inner, loopDepth+1)
	case *ReturnStmt:
		if v.X != nil {
			c.expr(v.X, sc, loopDepth)
		}
	case *BreakStmt:
		if loopDepth == 0 {
			c.errorf(v.Pos, "break outside loop")
		}
	case *ContinueStmt:
		if loopDepth == 0 {
			c.errorf(v.Pos, "continue outside loop")
		}
	}
}

func (c *checkCtx) expr(e Expr, sc *scope, loopDepth int) {
	switch v := e.(type) {
	case *IdentExpr:
		d, ok := sc.lookup(v.Name)
		v.Decl = d
		if !ok {
			if _, isFn := c.funcs[v.Name]; !isFn {
				c.errorf(v.Pos, "undeclared identifier %s", v.Name)
			}
		}
	case *IntLitExpr, *FloatLitExpr, *StringLitExpr:
	case *BinExpr:
		c.expr(v.L, sc, loopDepth)
		c.expr(v.R, sc, loopDepth)
	case *UnExpr:
		c.expr(v.X, sc, loopDepth)
	case *AssignExpr:
		if !isLValue(v.LHS) {
			c.errorf(v.Pos, "assignment target is not an lvalue")
		}
		c.expr(v.LHS, sc, loopDepth)
		c.expr(v.RHS, sc, loopDepth)
	case *IncDecExpr:
		if !isLValue(v.X) {
			c.errorf(v.Pos, "++/-- target is not an lvalue")
		}
		c.expr(v.X, sc, loopDepth)
	case *IndexExpr:
		c.expr(v.X, sc, loopDepth)
		c.expr(v.Index, sc, loopDepth)
	case *CallExpr:
		if c.report {
			if _, defined := c.funcs[v.Fun]; !defined && !c.builtins[v.Fun] {
				c.errorf(v.Pos, "call to unknown function %s", v.Fun)
			}
			if fn, defined := c.funcs[v.Fun]; defined && len(v.Args) != len(fn.Params) {
				c.errorf(v.Pos, "%s expects %d arguments, got %d", v.Fun, len(fn.Params), len(v.Args))
			}
		}
		for _, a := range v.Args {
			c.expr(a, sc, loopDepth)
		}
	case *MemberExpr:
		c.expr(v.X, sc, loopDepth)
	case *DerefExpr:
		c.expr(v.X, sc, loopDepth)
	case *AddrExpr:
		c.expr(v.X, sc, loopDepth)
	case *CastExpr:
		c.expr(v.X, sc, loopDepth)
	case *CondExpr:
		c.expr(v.Cond, sc, loopDepth)
		c.expr(v.Then, sc, loopDepth)
		c.expr(v.Else, sc, loopDepth)
	case *SizeofExpr:
		if v.X != nil {
			c.expr(v.X, sc, loopDepth)
		}
	}
}

// isLValue reports whether e designates a memory location.
func isLValue(e Expr) bool {
	switch e.(type) {
	case *IdentExpr, *IndexExpr, *MemberExpr, *DerefExpr:
		return true
	}
	return false
}

// SizeOf returns the byte size of a scalar/struct type in this model
// (char 1, int/float 4, double 8, pointer 8).
func SizeOf(t Type) int {
	switch v := t.(type) {
	case Basic:
		switch v.Kind {
		case Char:
			return 1
		case Int, Float:
			return 4
		case Double:
			return 8
		default:
			return 0
		}
	case Pointer:
		return 8
	case Array:
		if v.Len < 0 {
			return 8
		}
		return v.Len * SizeOf(v.Elem)
	case *StructType:
		n := 0
		for _, f := range v.Fields {
			n += SizeOf(f.Type)
		}
		return n
	}
	return 0
}
