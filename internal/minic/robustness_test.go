package minic

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// TestParserNeverPanicsOnMutations mutates valid source bytes and checks
// the parser fails gracefully (error, not panic) on arbitrary input.
func TestParserNeverPanicsOnMutations(t *testing.T) {
	base := []byte(`
struct S { int v; float w[2]; };
int helper(int x) { return x * 2; }
int f(int *secrets, int *output) {
    struct S s;
    s.v = secrets[0];
    for (int i = 0; i < 4; i++) { output[i] = helper(s.v) + i; }
    if (s.v > 0 && s.v < 100) { return 1; }
    return 0;
}
`)
	prop := func(pos uint16, b byte, cut uint16) bool {
		mutated := append([]byte(nil), base...)
		mutated[int(pos)%len(mutated)] = b
		if int(cut)%4 == 0 {
			mutated = mutated[:int(cut)%len(mutated)]
		}
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("parser panicked on %q: %v", mutated, r)
			}
		}()
		_, _ = Parse(string(mutated))
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestLexerNeverPanicsOnGarbage feeds raw random bytes to the streaming
// lexer, which must end at EOF or an error.
func TestLexerNeverPanicsOnGarbage(t *testing.T) {
	prop := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("lexer panicked on %q: %v", data, r)
			}
		}()
		l := NewLexer(string(data))
		for {
			tok, err := l.Next()
			if err != nil || tok.Kind == EOF {
				return true
			}
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestCheckerNeverPanicsOnParsedInput: anything that parses must be
// checkable without panicking.
func TestCheckerNeverPanicsOnParsedInput(t *testing.T) {
	srcs := []string{
		"int f(void) { return f() + f(); }",
		"struct A { int x; }; struct B { struct A a; }; int f(struct B *b) { return b->a.x; }",
		"int f(void) { int a[1][1][1]; a[0][0][0] = 1; return a[0][0][0]; }",
		"void f(void) {}",
		"int x; int y = 3; int f(void) { return x + y; }",
		"int f(int a) { return a ? a : a ? 1 : 2; }",
	}
	for _, src := range srcs {
		f, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		_ = NewChecker(DefaultBuiltins).Check(f)
	}
}

// TestParserBoundsNesting pins the nesting bound: blocks nested exactly
// to MaxNesting parse, one level more is a parse error, and sources nested
// far deeper in any recursive production fail the same way instead of
// overflowing the stack.
func TestParserBoundsNesting(t *testing.T) {
	// The function body's statements sit at level 1, so k nested blocks
	// around an empty statement reach level k+1.
	blocks := func(k int) string {
		return "void f(void) {" + strings.Repeat("{", k) + ";" + strings.Repeat("}", k) + "}\n"
	}
	if _, err := Parse(blocks(MaxNesting - 1)); err != nil {
		t.Fatalf("%d levels: %v", MaxNesting, err)
	}
	const n = 300_000
	for name, src := range map[string]string{
		"one level past": blocks(MaxNesting),
		"parentheses":    "int f(int x) { return " + strings.Repeat("(", n) + "x" + strings.Repeat(")", n) + "; }\n",
		"unary":          "int f(int x) { return " + strings.Repeat("!", n) + "x; }\n",
		"calls":          "int f(int x) { return " + strings.Repeat("f(", n) + "x" + strings.Repeat(")", n) + "; }\n",
		"assignments":    "int f(int x) { " + strings.Repeat("x = ", n) + "x; return x; }\n",
		"conditionals":   "int f(int x) { return " + strings.Repeat("x ? x : ", n) + "x; }\n",
		"else-ifs":       "int f(int x) { " + strings.Repeat("if (x) x = 1; else ", n) + "x = 2; return x; }\n",
	} {
		_, err := Parse(src)
		var perr *Error
		if !errors.As(err, &perr) || !strings.Contains(perr.Msg, "nesting deeper than") {
			t.Errorf("%s: err = %v, want the nesting error", name, err)
		}
	}
}
