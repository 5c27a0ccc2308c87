package minic

import "privacyscope/internal/sym"

// File is a parsed MiniC translation unit.
type File struct {
	Structs   []*StructType
	Globals   []*VarDecl
	Functions []*FuncDecl

	// resolved is set once the scope walk has bound the file (Check or
	// Resolve), so Resolve does not walk it again.
	resolved bool
}

// Function returns the function with the given name.
func (f *File) Function(name string) (*FuncDecl, bool) {
	for _, fn := range f.Functions {
		if fn.Name == name {
			return fn, true
		}
	}
	return nil, false
}

// Struct returns the struct type with the given name.
func (f *File) Struct(name string) (*StructType, bool) {
	for _, s := range f.Structs {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Name   string
	Return Type
	Params []*VarDecl
	Body   *Block
	Pos    Pos
	// Slots is the size of the function's frame: the number of distinct
	// (name, shadowing depth) keys among its params and locals (see
	// Resolve).
	Slots int
}

// VarDecl declares a variable (global, local or parameter).
type VarDecl struct {
	Name string
	Type Type
	Init Expr // optional
	Pos  Pos
	// Global marks a file-scope variable. Slot is, for a global, its
	// index in File.Globals (a duplicate shares the first's), and for a
	// param or local, its frame slot. Resolve sets both; a front end that
	// builds its own IR (PRIML) sets them itself.
	Global bool
	Slot   int
}

// Stmt is a MiniC statement.
type Stmt interface{ isStmt() }

// Block is { stmts }.
type Block struct {
	Stmts []Stmt
	Pos   Pos
}

func (*Block) isStmt() {}

// DeclStmt is a local declaration; C allows multiple declarators per line,
// which the parser splits into one VarDecl each.
type DeclStmt struct {
	Decls []*VarDecl
	Pos   Pos
}

func (*DeclStmt) isStmt() {}

// ExprStmt evaluates an expression for effect.
type ExprStmt struct {
	X   Expr
	Pos Pos
}

func (*ExprStmt) isStmt() {}

// IfStmt is if (Cond) Then else Else; Else may be nil.
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt
	Pos  Pos
}

func (*IfStmt) isStmt() {}

// WhileStmt is while (Cond) Body.
type WhileStmt struct {
	Cond Expr
	Body Stmt
	Pos  Pos
}

func (*WhileStmt) isStmt() {}

// ForStmt is for (Init; Cond; Post) Body; any clause may be nil.
type ForStmt struct {
	Init Stmt // DeclStmt or ExprStmt
	Cond Expr
	Post Expr
	Body Stmt
	Pos  Pos
}

func (*ForStmt) isStmt() {}

// DoWhileStmt is do Body while (Cond);.
type DoWhileStmt struct {
	Body Stmt
	Cond Expr
	Pos  Pos
}

func (*DoWhileStmt) isStmt() {}

// SwitchStmt is switch (Tag) { cases }. Each case's statements run until a
// break (C fallthrough is honored).
type SwitchStmt struct {
	Tag   Expr
	Cases []SwitchCase
	Pos   Pos
}

// SwitchCase is one case (or the default when IsDefault).
type SwitchCase struct {
	// Value is the case constant expression (nil for default).
	Value     Expr
	IsDefault bool
	Body      []Stmt
	Pos       Pos
}

func (*SwitchStmt) isStmt() {}

// ReturnStmt is return X; X may be nil.
type ReturnStmt struct {
	X   Expr
	Pos Pos
}

func (*ReturnStmt) isStmt() {}

// BreakStmt is break.
type BreakStmt struct {
	Pos Pos
}

func (*BreakStmt) isStmt() {}

// ContinueStmt is continue.
type ContinueStmt struct {
	Pos Pos
}

func (*ContinueStmt) isStmt() {}

// EmptyStmt is a bare semicolon.
type EmptyStmt struct {
	Pos Pos
}

func (*EmptyStmt) isStmt() {}

// Expr is a MiniC expression.
type Expr interface {
	isExpr()
	// Position returns the source position of the expression.
	Position() Pos
}

// IdentExpr references a variable or function by name.
type IdentExpr struct {
	Name string
	Pos  Pos
	// Decl is the variable the name resolves to, set by Resolve; nil
	// for a function name or an undeclared identifier.
	Decl *VarDecl
}

func (*IdentExpr) isExpr() {}

// Position implements Expr.
func (e *IdentExpr) Position() Pos { return e.Pos }

// IntLitExpr is an integer (or char) literal.
type IntLitExpr struct {
	V   int64
	Pos Pos
}

func (*IntLitExpr) isExpr() {}

// Position implements Expr.
func (e *IntLitExpr) Position() Pos { return e.Pos }

// FloatLitExpr is a floating literal.
type FloatLitExpr struct {
	V   float64
	Pos Pos
}

func (*FloatLitExpr) isExpr() {}

// Position implements Expr.
func (e *FloatLitExpr) Position() Pos { return e.Pos }

// StringLitExpr is a string literal (used only as opaque data, e.g. format
// strings of recognized output functions).
type StringLitExpr struct {
	V   string
	Pos Pos
}

func (*StringLitExpr) isExpr() {}

// Position implements Expr.
func (e *StringLitExpr) Position() Pos { return e.Pos }

// BinExpr is L op R (arithmetic, bitwise, comparison or logical).
type BinExpr struct {
	Op   sym.Op
	L, R Expr
	Pos  Pos
}

func (*BinExpr) isExpr() {}

// Position implements Expr.
func (e *BinExpr) Position() Pos { return e.Pos }

// UnExpr is op X for unary -, ~, !.
type UnExpr struct {
	Op  sym.Op
	X   Expr
	Pos Pos
}

func (*UnExpr) isExpr() {}

// Position implements Expr.
func (e *UnExpr) Position() Pos { return e.Pos }

// AssignExpr is LHS = RHS, or a compound assignment when Op != 0
// (LHS op= RHS).
type AssignExpr struct {
	Op  sym.Op // 0 for plain =
	LHS Expr
	RHS Expr
	Pos Pos
}

func (*AssignExpr) isExpr() {}

// Position implements Expr.
func (e *AssignExpr) Position() Pos { return e.Pos }

// IncDecExpr is X++ / X-- / ++X / --X.
type IncDecExpr struct {
	X      Expr
	Decr   bool
	Prefix bool
	Pos    Pos
}

func (*IncDecExpr) isExpr() {}

// Position implements Expr.
func (e *IncDecExpr) Position() Pos { return e.Pos }

// IndexExpr is X[Index].
type IndexExpr struct {
	X     Expr
	Index Expr
	Pos   Pos
}

func (*IndexExpr) isExpr() {}

// Position implements Expr.
func (e *IndexExpr) Position() Pos { return e.Pos }

// CallExpr is Fun(Args...).
type CallExpr struct {
	Fun  string
	Args []Expr
	Pos  Pos
}

func (*CallExpr) isExpr() {}

// Position implements Expr.
func (e *CallExpr) Position() Pos { return e.Pos }

// MemberExpr is X.Field (Arrow false) or X->Field (Arrow true).
type MemberExpr struct {
	X     Expr
	Field string
	Arrow bool
	Pos   Pos
}

func (*MemberExpr) isExpr() {}

// Position implements Expr.
func (e *MemberExpr) Position() Pos { return e.Pos }

// DerefExpr is *X.
type DerefExpr struct {
	X   Expr
	Pos Pos
}

func (*DerefExpr) isExpr() {}

// Position implements Expr.
func (e *DerefExpr) Position() Pos { return e.Pos }

// AddrExpr is &X.
type AddrExpr struct {
	X   Expr
	Pos Pos
}

func (*AddrExpr) isExpr() {}

// Position implements Expr.
func (e *AddrExpr) Position() Pos { return e.Pos }

// CastExpr is (Type) X.
type CastExpr struct {
	To  Type
	X   Expr
	Pos Pos
}

func (*CastExpr) isExpr() {}

// Position implements Expr.
func (e *CastExpr) Position() Pos { return e.Pos }

// CondExpr is Cond ? Then : Else.
type CondExpr struct {
	Cond, Then, Else Expr
	Pos              Pos
}

func (*CondExpr) isExpr() {}

// Position implements Expr.
func (e *CondExpr) Position() Pos { return e.Pos }

// SizeofExpr is sizeof(Type) or sizeof expr; it evaluates to a constant and
// is treated as opaque size 1/4/8 per scalar kind.
type SizeofExpr struct {
	Ty  Type // nil when applied to an expression
	X   Expr // nil when applied to a type
	Pos Pos
}

func (*SizeofExpr) isExpr() {}

// Position implements Expr.
func (e *SizeofExpr) Position() Pos { return e.Pos }
