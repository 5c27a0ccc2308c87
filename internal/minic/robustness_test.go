package minic

import (
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
