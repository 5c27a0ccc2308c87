package minic

import (
	"errors"
	"strings"
	"testing"
)

// listing1 is the paper's Listing 1, the illustrative C enclave example.
const listing1 = `
int enclave_process_data(char *secrets, char *output)
{
    int temporary = secrets[0] + 100;
    output[0] = temporary + 1;
    if (secrets[1] == 0)
        return 0;
    else
        return 1;
}
`

func TestParseListing1(t *testing.T) {
	f, err := Parse(listing1)
	if err != nil {
		t.Fatal(err)
	}
	fn, ok := f.Function("enclave_process_data")
	if !ok {
		t.Fatal("function not found")
	}
	if len(fn.Params) != 2 {
		t.Fatalf("params = %d", len(fn.Params))
	}
	for _, p := range fn.Params {
		ptr, ok := p.Type.(Pointer)
		if !ok {
			t.Fatalf("param %s type = %v, want pointer", p.Name, p.Type)
		}
		if b, ok := ptr.Elem.(Basic); !ok || b.Kind != Char {
			t.Errorf("param %s elem = %v, want char", p.Name, ptr.Elem)
		}
	}
	if b, ok := fn.Return.(Basic); !ok || b.Kind != Int {
		t.Errorf("return = %v, want int", fn.Return)
	}
	if len(fn.Body.Stmts) != 3 {
		t.Fatalf("body statements = %d, want 3", len(fn.Body.Stmts))
	}
	if _, ok := fn.Body.Stmts[0].(*DeclStmt); !ok {
		t.Errorf("stmt 0 = %T", fn.Body.Stmts[0])
	}
	ifStmt, ok := fn.Body.Stmts[2].(*IfStmt)
	if !ok {
		t.Fatalf("stmt 2 = %T", fn.Body.Stmts[2])
	}
	if _, ok := ifStmt.Else.(*ReturnStmt); !ok {
		t.Errorf("else = %T", ifStmt.Else)
	}
}

func TestLexPreprocessor(t *testing.T) {
	src := `
#include <stdio.h>
#define N 5
#define RATE 0.5
int f(void) { int a[N]; return N; }
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := f.Function("f")
	decl := fn.Body.Stmts[0].(*DeclStmt).Decls[0]
	arr, ok := decl.Type.(Array)
	if !ok || arr.Len != 5 {
		t.Errorf("a type = %v, want int[5]", decl.Type)
	}
	ret := fn.Body.Stmts[1].(*ReturnStmt)
	lit, ok := ret.X.(*IntLitExpr)
	if !ok || lit.V != 5 {
		t.Errorf("return expr = %#v", ret.X)
	}
}

func TestLexRejectsFunctionMacros(t *testing.T) {
	if _, err := Parse("#define SQ(x) ((x)*(x))\nint f(void){return 0;}"); err == nil {
		t.Error("function-like macro must be rejected")
	}
}

func TestLexComments(t *testing.T) {
	src := `
// line comment
/* block
   comment */
int f(void) { return 1; /* inline */ }
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse("/* unterminated"); err == nil {
		t.Error("unterminated comment must error")
	}
}

func TestLexLiterals(t *testing.T) {
	src := `int f(void) {
  int a = 'x';
  int b = '\n';
  float c = 1.5f;
  double d = 2e3;
  double e = .25;
  int g = 100L;
  return 0;
}`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := f.Function("f")
	inits := []struct {
		idx   int
		check func(Expr) bool
	}{
		{0, func(e Expr) bool { l, ok := e.(*IntLitExpr); return ok && l.V == 'x' }},
		{1, func(e Expr) bool { l, ok := e.(*IntLitExpr); return ok && l.V == '\n' }},
		{2, func(e Expr) bool { l, ok := e.(*FloatLitExpr); return ok && l.V == 1.5 }},
		{3, func(e Expr) bool { l, ok := e.(*FloatLitExpr); return ok && l.V == 2000 }},
		{4, func(e Expr) bool { l, ok := e.(*FloatLitExpr); return ok && l.V == 0.25 }},
		{5, func(e Expr) bool { l, ok := e.(*IntLitExpr); return ok && l.V == 100 }},
	}
	for _, tt := range inits {
		d := fn.Body.Stmts[tt.idx].(*DeclStmt).Decls[0]
		if !tt.check(d.Init) {
			t.Errorf("decl %d init = %#v", tt.idx, d.Init)
		}
	}
}

func TestParseStruct(t *testing.T) {
	src := `
struct Model {
    float weights[4];
    float bias;
    int n, m;
    struct Model *next;
};
float get_bias(struct Model *m) { return m->bias; }
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := f.Struct("Model")
	if !ok {
		t.Fatal("struct not found")
	}
	if len(st.Fields) != 5 {
		t.Fatalf("fields = %d: %s", len(st.Fields), st.Describe())
	}
	wty, _ := st.FieldType("weights")
	if arr, ok := wty.(Array); !ok || arr.Len != 4 {
		t.Errorf("weights = %v", wty)
	}
	if _, ok := st.FieldType("nope"); ok {
		t.Error("unknown field must miss")
	}
	fn, _ := f.Function("get_bias")
	ret := fn.Body.Stmts[0].(*ReturnStmt)
	mem, ok := ret.X.(*MemberExpr)
	if !ok || !mem.Arrow || mem.Field != "bias" {
		t.Errorf("member expr = %#v", ret.X)
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `
int f(int n) {
    int total = 0;
    for (int i = 0; i < n; i++) {
        if (i % 2 == 0) continue;
        total += i;
        if (total > 100) break;
    }
    while (total > 0) total--;
    return total;
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := f.Function("f")
	if len(fn.Body.Stmts) != 4 {
		t.Fatalf("stmts = %d", len(fn.Body.Stmts))
	}
	forStmt := fn.Body.Stmts[1].(*ForStmt)
	if forStmt.Init == nil || forStmt.Cond == nil || forStmt.Post == nil {
		t.Error("for clauses missing")
	}
	if _, ok := fn.Body.Stmts[2].(*WhileStmt); !ok {
		t.Errorf("stmt 2 = %T", fn.Body.Stmts[2])
	}
}

func TestParseExpressions(t *testing.T) {
	src := `
int f(int x, int *p, float y) {
    x = x + 2 * 3;
    x += 1;
    x *= 2;
    *p = x;
    p[1] = x;
    x = p[0] > 3 ? 1 : 0;
    x = (int)y;
    x = -x + !x - ~x;
    x++;
    --x;
    x = sizeof(int);
    x = sizeof x;
    return x & 3 | 4 ^ 5;
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := f.Function("f")
	if len(fn.Body.Stmts) != 13 {
		t.Fatalf("stmts = %d", len(fn.Body.Stmts))
	}
	// x + 2*3: check precedence.
	first := fn.Body.Stmts[0].(*ExprStmt).X.(*AssignExpr)
	bin := first.RHS.(*BinExpr)
	if bin.Op.String() != "+" {
		t.Errorf("top op = %v", bin.Op)
	}
	// Ternary.
	tern := fn.Body.Stmts[5].(*ExprStmt).X.(*AssignExpr)
	if _, ok := tern.RHS.(*CondExpr); !ok {
		t.Errorf("ternary = %#v", tern.RHS)
	}
	// Cast.
	cast := fn.Body.Stmts[6].(*ExprStmt).X.(*AssignExpr)
	if c, ok := cast.RHS.(*CastExpr); !ok {
		t.Errorf("cast = %#v", cast.RHS)
	} else if b, ok := c.To.(Basic); !ok || b.Kind != Int {
		t.Errorf("cast type = %v", c.To)
	}
}

func TestParseCalls(t *testing.T) {
	src := `
float helper(float a, float b) { return a + b; }
float f(float x) { return helper(x, 2.0) + sqrt(x); }
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := f.Function("f")
	ret := fn.Body.Stmts[0].(*ReturnStmt)
	add := ret.X.(*BinExpr)
	call, ok := add.L.(*CallExpr)
	if !ok || call.Fun != "helper" || len(call.Args) != 2 {
		t.Errorf("call = %#v", add.L)
	}
}

func TestParsePrototypeAndGlobals(t *testing.T) {
	src := `
int helper(int x);
int counter = 0;
float rates[3];
int helper(int x) { return x + counter; }
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Globals) != 2 {
		t.Errorf("globals = %d", len(f.Globals))
	}
	var defs int
	for _, fn := range f.Functions {
		if fn.Name == "helper" && fn.Body != nil {
			defs++
		}
	}
	if defs != 1 {
		t.Errorf("helper definitions = %d", defs)
	}
}

func TestParse2DArray(t *testing.T) {
	src := `void f(void) { float m[3][4]; m[1][2] = 1.0; }`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := f.Function("f")
	d := fn.Body.Stmts[0].(*DeclStmt).Decls[0]
	outer, ok := d.Type.(Array)
	if !ok || outer.Len != 3 {
		t.Fatalf("type = %v", d.Type)
	}
	inner, ok := outer.Elem.(Array)
	if !ok || inner.Len != 4 {
		t.Fatalf("inner = %v", outer.Elem)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"int f( { }",
		"int f(void) { return }",
		"int f(void) { x = ; }",
		"struct S { int; };",
		"int f(void) { if x return 0; }",
		"int f(void) { int a[n]; }",
		"int 3x;",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// TestParseRejectsDeclarationBodies pins the C rule that a declaration is
// not a statement: it cannot be the whole body of if, else, while, for or
// do. Accepting one would give the name a different variable on each path
// past the statement.
func TestParseRejectsDeclarationBodies(t *testing.T) {
	cases := []struct{ src, want string }{
		{"int x = 7;\nint f(int *s, int *o) { if (s[0] > 3) int x = s[1]; o[0] = x; return 0; }",
			"minic: 2:39: a declaration cannot be the body of if"},
		{"int f(int c) { if (c) ; else struct S *p; return 0; }", "minic: 1:30: a declaration cannot be the body of else"},
		{"int f(int c) { while (c) int y; return 0; }", "minic: 1:26: a declaration cannot be the body of while"},
		{"int f(int c) { for (;;) const int y = 1; return 0; }", "minic: 1:25: a declaration cannot be the body of for"},
		{"int f(int c) { do int y; while (c); return 0; }", "minic: 1:19: a declaration cannot be the body of do"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %s", c.src, err, c.want)
		}
	}
	// A declaration in a braced body is fine.
	if _, err := Parse("int f(int c) { if (c) { int y = 1; } while (c) { int z; } return 0; }"); err != nil {
		t.Errorf("braced declaration bodies: %v", err)
	}
}

func TestTypeStrings(t *testing.T) {
	tests := []struct {
		t    Type
		want string
	}{
		{Basic{Kind: Int}, "int"},
		{Basic{Kind: Double}, "double"},
		{Pointer{Elem: Basic{Kind: Char}}, "char*"},
		{Array{Elem: Basic{Kind: Float}, Len: 3}, "float[3]"},
		{Array{Elem: Basic{Kind: Float}, Len: -1}, "float[]"},
	}
	for _, tt := range tests {
		if got := tt.t.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestSizeOf(t *testing.T) {
	st := &StructType{Name: "S", Fields: []Field{
		{Name: "a", Type: Basic{Kind: Int}},
		{Name: "b", Type: Basic{Kind: Double}},
	}}
	tests := []struct {
		t    Type
		want int
	}{
		{Basic{Kind: Char}, 1},
		{Basic{Kind: Int}, 4},
		{Basic{Kind: Float}, 4},
		{Basic{Kind: Double}, 8},
		{Pointer{Elem: Basic{Kind: Int}}, 8},
		{Array{Elem: Basic{Kind: Int}, Len: 3}, 12},
		{st, 12},
	}
	for _, tt := range tests {
		if got := SizeOf(tt.t); got != tt.want {
			t.Errorf("SizeOf(%v) = %d, want %d", tt.t, got, tt.want)
		}
	}
}

func TestCheckerAcceptsListing1(t *testing.T) {
	f := MustParse(listing1)
	if err := NewChecker(DefaultBuiltins).Check(f); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerFindsErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"undeclared", "int f(void) { return x; }", "undeclared identifier x"},
		{"unknown-call", "int f(void) { return g(); }", "unknown function g"},
		{"arity", "int g(int a) { return a; } int f(void) { return g(); }", "expects 1 arguments"},
		{"dup-local", "int f(void) { int a; int a; return 0; }", "duplicate declaration"},
		{"dup-param", "int f(int a, int a) { return a; }", "duplicate parameter"},
		{"break-outside", "int f(void) { break; return 0; }", "break outside loop"},
		{"continue-outside", "int f(void) { continue; return 0; }", "continue outside loop"},
		{"bad-lvalue", "int f(void) { 3 = 4; return 0; }", "not an lvalue"},
		{"dup-global", "int a; int a;", "duplicate global"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f, err := Parse(tt.src)
			if err != nil {
				t.Fatal(err)
			}
			err = NewChecker(DefaultBuiltins).Check(f)
			if err == nil {
				t.Fatal("Check succeeded, want error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error = %q, want substring %q", err, tt.want)
			}
		})
	}
}

func TestCheckerRejectsStructCycles(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string // "" when the module is legal
		pos  Pos
	}{
		{"direct", "struct S { int a; struct S s; };", "struct S contains itself by value through field S.s", Pos{1, 28}},
		{"array", "struct S { int a; struct S arr[2]; };", "through field S.arr", Pos{1, 28}},
		{"unsized-array", "struct S { struct S arr[]; };", "through field S.arr", Pos{1, 21}},
		{"nested-array", "struct S { struct S m[2][3]; };", "through field S.m", Pos{1, 21}},
		{"pointer", "struct S { int a; struct S *next; };", "", Pos{}},
		{"pointer-array", "struct S { struct S *kids[4]; };", "", Pos{}},
		{"acyclic-nesting", "struct P { int x; }; struct S { struct P p[2]; struct P q; };", "", Pos{}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f, err := Parse(tt.src + " int f(void) { return 0; }")
			if err != nil {
				t.Fatal(err)
			}
			err = NewChecker(DefaultBuiltins).Check(f)
			if tt.want == "" {
				if err != nil {
					t.Fatalf("Check rejected a legal struct: %v", err)
				}
				return
			}
			var ce *CheckError
			if !errors.As(err, &ce) || len(ce.Errs) != 1 {
				t.Fatalf("Check = %v, want exactly one error", err)
			}
			if got := ce.Errs[0]; !strings.Contains(got.Msg, tt.want) || got.Pos != tt.pos {
				t.Errorf("error = %q at %s, want substring %q at %s", got.Msg, got.Pos, tt.want, tt.pos)
			}
		})
	}
}

// TestCheckerRejectsMutualStructCycle builds the cycle directly: the
// parser cannot express one (a struct must be defined before a member
// names it), but the checker must not rely on that.
func TestCheckerRejectsMutualStructCycle(t *testing.T) {
	a := &StructType{Name: "A"}
	b := &StructType{Name: "B", Fields: []Field{{Name: "a", Type: Array{Elem: a, Len: 2}, Pos: Pos{2, 5}}}}
	a.Fields = []Field{{Name: "n", Type: Basic{Kind: Int}}, {Name: "b", Type: b, Pos: Pos{1, 5}}}
	// A third struct that merely contains the cycle adds no second error.
	c := &StructType{Name: "C", Fields: []Field{{Name: "x", Type: a}}}
	err := NewChecker(DefaultBuiltins).Check(&File{Structs: []*StructType{a, b, c}})
	var ce *CheckError
	if !errors.As(err, &ce) || len(ce.Errs) != 1 {
		t.Fatalf("Check = %v, want exactly one error", err)
	}
	if got := ce.Errs[0]; !strings.Contains(got.Msg, "struct A contains itself by value through field B.a") || got.Pos != (Pos{2, 5}) {
		t.Fatalf("error = %q at %s", got.Msg, got.Pos)
	}
}

func TestCheckerScopes(t *testing.T) {
	src := `
int g;
int f(int a) {
    int b = a + g;
    { int b = 2; b = b + 1; }
    for (int i = 0; i < 3; i++) { b += i; }
    return b;
}
`
	f := MustParse(src)
	if err := NewChecker(DefaultBuiltins).Check(f); err != nil {
		t.Fatal(err)
	}
	// Loop variable does not escape.
	src2 := `int f(void) { for (int i = 0; i < 3; i++) {} return i; }`
	f2 := MustParse(src2)
	if err := NewChecker(DefaultBuiltins).Check(f2); err == nil {
		t.Error("loop variable must not escape")
	}
}

func TestElemTypeAndScalars(t *testing.T) {
	if e, ok := ElemType(Pointer{Elem: Basic{Kind: Char}}); !ok || e.String() != "char" {
		t.Error("ElemType pointer failed")
	}
	if e, ok := ElemType(Array{Elem: Basic{Kind: Int}, Len: 2}); !ok || e.String() != "int" {
		t.Error("ElemType array failed")
	}
	if _, ok := ElemType(Basic{Kind: Int}); ok {
		t.Error("ElemType of scalar must fail")
	}
	if !IsScalar(Basic{Kind: Int}) || !IsScalar(Pointer{Elem: Basic{Kind: Int}}) {
		t.Error("IsScalar wrong")
	}
	if IsScalar(Basic{Kind: Void}) || IsScalar(Array{Elem: Basic{Kind: Int}, Len: 1}) {
		t.Error("IsScalar wrong for void/array")
	}
	if !IsFloatType(Basic{Kind: Double}) || IsFloatType(Basic{Kind: Int}) {
		t.Error("IsFloatType wrong")
	}
}
