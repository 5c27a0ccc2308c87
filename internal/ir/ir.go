// Package ir defines the shared analysis IR both front ends lower into: a
// tree of typed operations with source-position and display metadata. The
// symbolic execution engine (internal/symexec) runs over this IR only, so
// PRIML programs (§V) and MiniC enclave code (§VI) are analyzed by one
// engine and one checker kernel instead of two parallel implementations.
//
// The IR is a structured-region op tree rather than a flat basic-block CFG:
// each op corresponds to one source statement and keeps its structured
// control (branch ops own their arms, loop ops own their bodies). This keeps
// lowering 1:1 and reversible — the Table IV trace rows print the op's
// Display string, which is exactly the source statement — while still
// erasing every front-end difference the engine would otherwise need to
// know about. Declassify sites, secret inputs and other front-end-specific
// effects lower to intrinsic calls (see symexec.Options.Intrinsics) and
// NoteOp markers, not to dedicated statement forms.
//
// Expressions are deliberately NOT re-encoded: ops reference minic.Expr
// directly. MiniC's expression grammar is a superset of PRIML's (§V-A), so
// the PRIML front end lowers its expressions into it; inventing a third
// expression language would only add a translation layer with no consumer.
package ir

import (
	"privacyscope/internal/minic"
)

// Program is a lowered module: the source translation unit plus one Func per
// function. The Module is retained because the engine sizes its global
// table and resolves struct layouts against it. Every identifier in the
// program's expressions is bound to its minic.VarDecl (IdentExpr.Decl), and
// every variable carries its slot (VarDecl.Slot).
type Program struct {
	Module *minic.File
	Funcs  map[string]*Func
}

// Func returns the named function.
func (p *Program) Func(name string) (*Func, bool) {
	f, ok := p.Funcs[name]
	return f, ok
}

// Func is one lowered function.
type Func struct {
	Name   string
	Params []*minic.VarDecl
	Return minic.Type
	// Slots is the frame size: params and locals index a frame by their
	// VarDecl.Slot.
	Slots int
	// Body is nil for declarations without a definition.
	Body *BlockOp
	// Calls lists the callee names of every call expression in the body
	// (syntactic, deduplicated, unordered reachability seed).
	Calls []string
	Pos   minic.Pos
}

// Op is one IR operation. Every op carries a display string (the source
// statement it was lowered from, driving trace snapshots) and a source
// position.
type Op interface {
	isOp()
	// Display renders the op as its source statement.
	Display() string
	// Position returns the op's source position.
	Position() minic.Pos
}

// Meta is the display/position metadata embedded in every op. An op
// lowered from MiniC keeps its statement, rendered only when Display is
// called (trace snapshots are the one reader); other front ends set Src.
type Meta struct {
	Stmt minic.Stmt
	Src  string
	Pos  minic.Pos
}

// Display implements Op.
func (m Meta) Display() string {
	if m.Stmt != nil {
		return minic.StmtString(m.Stmt)
	}
	return m.Src
}

// Position implements Op.
func (m Meta) Position() minic.Pos { return m.Pos }

// BlockOp is a lexical scope containing a sequence of ops.
type BlockOp struct {
	Meta
	Ops []Op
}

func (*BlockOp) isOp() {}

// EmptyOp is a no-op (a bare semicolon, PRIML's skip).
type EmptyOp struct {
	Meta
}

func (*EmptyOp) isOp() {}

// DeclOp declares (and optionally initializes) local variables.
type DeclOp struct {
	Meta
	Decls []*minic.VarDecl
}

func (*DeclOp) isOp() {}

// ExprOp evaluates an expression for effect (assignments, calls,
// declassify intrinsics).
type ExprOp struct {
	Meta
	X minic.Expr
}

func (*ExprOp) isOp() {}

// IfOp is a two-way branch. Else may be nil.
type IfOp struct {
	Meta
	Cond minic.Expr
	Then Op
	Else Op
	// FaintJoin marks an if whose arms write only faint locals at equal
	// cost (see faint.go): once both arms have run, the engine continues
	// once under the pre-fork path condition.
	FaintJoin bool
}

func (*IfOp) isOp() {}

// LoopOp unifies the three C loop forms:
//
//   - while (Cond) Body:            Cond + Body
//   - for (Init; Cond; Post) Body:  optional Init op and Post
//     expression (Cond may be nil for for(;;))
//   - do Body while (Cond):         PostTest — Body runs once before the
//     condition is first evaluated
type LoopOp struct {
	Meta
	// Init runs once before the first condition check (for loops).
	Init Op
	// Cond is the loop condition; nil means loop forever (exit only by
	// break/return, bounded by the engine).
	Cond minic.Expr
	// Post is evaluated after each iteration (for loops).
	Post minic.Expr
	Body Op
	// PostTest marks do-while semantics.
	PostTest bool
}

func (*LoopOp) isOp() {}

// SwitchOp is a C switch with fallthrough semantics.
type SwitchOp struct {
	Meta
	Tag   minic.Expr
	Cases []SwitchCase
}

// SwitchCase is one case arm (or the default when IsDefault).
type SwitchCase struct {
	// Value is the case constant expression (nil for default).
	Value     minic.Expr
	IsDefault bool
	Body      []Op
	Pos       minic.Pos
}

func (*SwitchOp) isOp() {}

// ReturnOp returns from the function; X may be nil. Type is the
// function's declared return type, which the returned value converts to
// (nil: no conversion).
type ReturnOp struct {
	Meta
	X    minic.Expr
	Type minic.Type
}

func (*ReturnOp) isOp() {}

// BreakOp exits the innermost loop or switch.
type BreakOp struct {
	Meta
}

func (*BreakOp) isOp() {}

// ContinueOp jumps to the next loop iteration.
type ContinueOp struct {
	Meta
}

func (*ContinueOp) isOp() {}

// NoteOp is a zero-cost front-end marker: the engine invokes
// Options.NoteHook with Data and the current state view, without stepping,
// costing or snapshotting. The PRIML adapter uses NoteOps to rebuild the
// Tables II/III simulation rows from engine state.
type NoteOp struct {
	Meta
	Data any
}

func (*NoteOp) isOp() {}
