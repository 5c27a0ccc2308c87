package minic

import (
	"errors"
	"strings"
	"testing"
)

// lexAll drains a streaming lexer to EOF.
func lexAll(t *testing.T, src string) []Token {
	t.Helper()
	l := NewLexer(src)
	var out []Token
	for {
		tok, err := l.Next()
		if err != nil {
			t.Fatalf("lex %q: %v", src, err)
		}
		out = append(out, tok)
		if tok.Kind == EOF {
			return out
		}
	}
}

// TestLexErrorWinsOverEarlierParseError pins the error rule of the
// streaming parser: a lexical error anywhere in the source is the error
// reported, even when the parser stopped at a syntax error before reaching
// it, or parsed a complete file before it.
func TestLexErrorWinsOverEarlierParseError(t *testing.T) {
	cases := []struct{ src, want string }{
		{"int f( { }\nint g(void) { return 1 @ 2; }", `minic: 2:24: unexpected character '@'`},
		{"int x;\n@", `minic: 2:1: unexpected character '@'`},
		{"int f(void) { return ; ; }}}\n/* open", `minic: 2:1: unterminated block comment`},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		var me *Error
		if !errors.As(err, &me) || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %s", c.src, err, c.want)
		}
	}
}

// TestLexColumnsCountRunes pins that columns count runes, not bytes, past
// multi-byte identifiers, comments and string literals.
func TestLexColumnsCountRunes(t *testing.T) {
	toks := lexAll(t, "/* é日 */ int héllo = \"ü\"; x\n  ïd")
	want := []struct {
		text string
		pos  Pos
	}{
		{"int", Pos{1, 10}}, {"héllo", Pos{1, 14}}, {"=", Pos{1, 20}},
		{"ü", Pos{1, 22}}, {";", Pos{1, 25}}, {"x", Pos{1, 27}}, {"ïd", Pos{2, 3}},
	}
	if len(toks) != len(want)+1 {
		t.Fatalf("tokens = %v", toks)
	}
	for i, w := range want {
		if toks[i].Text != w.text || toks[i].Pos != w.pos {
			t.Errorf("token %d = %q at %v, want %q at %v", i, toks[i].Text, toks[i].Pos, w.text, w.pos)
		}
	}
	if _, err := Parse("int héllo = @;"); err == nil || err.Error() != "minic: 1:13: unexpected character '@'" {
		t.Errorf("error position = %v, want 1:13", err)
	}
}

// TestLexLiteralsAndDefines pins the token of each literal form and of a
// #define substitution (whose tokens keep their positions in the macro
// body).
func TestLexLiteralsAndDefines(t *testing.T) {
	cases := []struct {
		src   string
		kind  Kind
		text  string
		ival  int64
		fval  float64
		pos   Pos
		count int // tokens before EOF
	}{
		{"0x1F", IntLit, "0x1F", 31, 0, Pos{1, 1}, 1},
		{"0X1f", IntLit, "0x1f", 31, 0, Pos{1, 1}, 1},
		{"1.5e3f", FloatLit, "1.5e3", 0, 1500, Pos{1, 1}, 1},
		{".25", FloatLit, ".25", 0, 0.25, Pos{1, 1}, 1},
		{"42u", IntLit, "42", 42, 0, Pos{1, 1}, 1},
		{`'\n'`, CharLit, "\n", 10, 0, Pos{1, 1}, 1},
		{`'a'`, CharLit, "a", 97, 0, Pos{1, 1}, 1},
		{`"a\tb\"c"`, StringLit, "a\tb\"c", 0, 0, Pos{1, 1}, 1},
		{`"plain"`, StringLit, "plain", 0, 0, Pos{1, 1}, 1},
		{"\"bad\xffbyte\"", StringLit, "bad�byte", 0, 0, Pos{1, 1}, 1},
		{"#define N 4\n  N", IntLit, "4", 4, 0, Pos{1, 1}, 1},
		{"#include <stdio.h>\n#define E /* gone */\nE", StringLit, "", 0, 0, Pos{}, 0},
		{"#define P (1 + 2)\nP", LParen, "(", 0, 0, Pos{1, 1}, 5},
	}
	for _, c := range cases {
		toks := lexAll(t, c.src)
		if len(toks)-1 != c.count {
			t.Errorf("%q: %d tokens %v, want %d", c.src, len(toks)-1, toks, c.count)
			continue
		}
		if c.count == 0 {
			continue
		}
		tok := toks[0]
		if tok.Kind != c.kind || tok.Text != c.text || tok.Int != c.ival || tok.Float != c.fval || tok.Pos != c.pos {
			t.Errorf("%q: token %+v, want %v %q int %d float %v at %v", c.src, tok, c.kind, c.text, c.ival, c.fval, c.pos)
		}
	}
	if _, err := NewLexer("#define F(x) x\n").Next(); err == nil {
		t.Error("function-like macro must be rejected")
	}
}

// TestLexerAllocatesNothingPerToken pins that the streaming lexer copies
// no source: identifier and number texts are substrings, so lexing a long
// token-rich source allocates at most the lexer itself.
func TestLexerAllocatesNothingPerToken(t *testing.T) {
	src := strings.Repeat("int x1 = 0x1F + y_2 * 3.5 >> 1; // note\n", 200)
	n := testing.AllocsPerRun(10, func() {
		l := NewLexer(src)
		for {
			if tok, err := l.Next(); err != nil || tok.Kind == EOF {
				return
			}
		}
	})
	if n > 1 {
		t.Errorf("lexing %d bytes allocated %v times, want at most 1", len(src), n)
	}
}

// TestParseAllocatesNoTokenArray pins that the parser pulls tokens through
// a fixed window instead of lexing the source into an array first: source
// bytes that produce no AST (a long comment here) cost no allocation.
func TestParseAllocatesNoTokenArray(t *testing.T) {
	const fn = "int f(int *o) { o[0] = 1; return 0; }\n"
	comment := "/*" + strings.Repeat("x", 64<<10) + "*/\n"
	bytesPerParse := func(src string) int64 {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(src); err != nil {
					b.Fatal(err)
				}
			}
		}).AllocedBytesPerOp()
	}
	short, long := bytesPerParse(fn), bytesPerParse(comment+fn)
	if long-short > 1024 {
		t.Errorf("a %d-byte comment added %d allocated bytes per parse (%d vs %d), want none", len(comment), long-short, long, short)
	}
}
