package minic

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Error reports a lexical, syntactic or semantic MiniC error.
type Error struct {
	Pos Pos
	Msg string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("minic: %s: %s", e.Pos, e.Msg) }

// Lexer tokenizes MiniC source in place: Next scans one token at a time
// straight from the source string, and identifier and number texts are
// substrings of it. It implements a one-line preprocessor: "#define NAME
// token" records a substitution applied to later identifiers, and any
// other "#" line (e.g. #include) is skipped. Columns count runes.
type Lexer struct {
	src     string
	off     int
	line    int
	col     int
	defines map[string][]Token
	// pending holds the rest of a #define expansion still to return.
	pending []Token
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Next returns the next token, applying #define substitutions. At the end
// of the input it returns EOF, and keeps returning it.
func (l *Lexer) Next() (Token, error) {
	for {
		if len(l.pending) > 0 {
			t := l.pending[0]
			l.pending = l.pending[1:]
			return t, nil
		}
		t, err := l.next()
		if err != nil || t.Kind != Ident {
			return t, err
		}
		repl, ok := l.defines[t.Text]
		if !ok {
			return t, nil
		}
		l.pending = repl
	}
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *Lexer) peek() rune {
	if l.off >= len(l.src) {
		return 0
	}
	if c := l.src[l.off]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off:])
	return r
}

// peekAt returns the rune n runes past the current one, or 0 past the end.
func (l *Lexer) peekAt(n int) rune {
	off := l.off
	for ; n > 0 && off < len(l.src); n-- {
		_, size := utf8.DecodeRuneInString(l.src[off:])
		off += size
	}
	if off >= len(l.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(l.src[off:])
	return r
}

func (l *Lexer) advance() rune {
	r, size := rune(l.src[l.off]), 1
	if r >= utf8.RuneSelf {
		r, size = utf8.DecodeRuneInString(l.src[l.off:])
	}
	l.off += size
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) skipTrivia() error {
	for l.off < len(l.src) {
		r := l.peek()
		switch {
		case unicode.IsSpace(r):
			l.advance()
		case r == '/' && l.peekAt(1) == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && l.peekAt(1) == '*':
			start := l.pos()
			l.advance()
			l.advance()
			for {
				if l.off >= len(l.src) {
					return &Error{Pos: start, Msg: "unterminated block comment"}
				}
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		case r == '#':
			if err := l.directive(); err != nil {
				return err
			}
		default:
			return nil
		}
	}
	return nil
}

// directive handles a "#" line: #define records a substitution; everything
// else (#include, #pragma, …) is skipped to end of line.
func (l *Lexer) directive() error {
	start := l.pos()
	from := l.off
	for l.off < len(l.src) && l.peek() != '\n' {
		l.advance()
	}
	fields := strings.Fields(l.src[from:l.off])
	if len(fields) >= 3 && fields[0] == "#define" {
		name := fields[1]
		if strings.ContainsRune(name, '(') {
			// Function-like macros are out of scope.
			return &Error{Pos: start, Msg: "function-like macros are not supported: " + name}
		}
		sub := NewLexer(strings.Join(fields[2:], " "))
		var body []Token
		for {
			t, err := sub.next()
			if err != nil {
				return &Error{Pos: start, Msg: "bad #define body: " + err.Error()}
			}
			if t.Kind == EOF {
				break
			}
			body = append(body, t)
		}
		if l.defines == nil {
			l.defines = make(map[string][]Token)
		}
		l.defines[name] = body
	}
	return nil
}

func (l *Lexer) next() (Token, error) {
	if err := l.skipTrivia(); err != nil {
		return Token{}, err
	}
	start := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: start}, nil
	}
	r := l.peek()
	switch {
	case unicode.IsLetter(r) || r == '_':
		from := l.off
		for l.off < len(l.src) {
			c := l.peek()
			if !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '_' {
				break
			}
			l.advance()
		}
		s := l.src[from:l.off]
		if kw, ok := keywordKinds[s]; ok {
			return Token{Kind: kw, Text: s, Pos: start}, nil
		}
		return Token{Kind: Ident, Text: s, Pos: start}, nil
	case unicode.IsDigit(r) || (r == '.' && unicode.IsDigit(l.peekAt(1))):
		return l.number(start)
	case r == '\'':
		return l.charLit(start)
	case r == '"':
		return l.stringLit(start)
	}
	return l.operator(start)
}

func (l *Lexer) number(start Pos) (Token, error) {
	// Hex literals: 0x / 0X prefix.
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		lit := l.off
		l.advance()
		l.advance()
		from := l.off
		for l.off < len(l.src) && isHexDigit(l.peek()) {
			l.advance()
		}
		digits := l.src[from:l.off]
		if digits == "" {
			return Token{}, &Error{Pos: start, Msg: "bad hex literal"}
		}
		v, err := strconv.ParseUint(digits, 16, 64)
		if err != nil {
			return Token{}, &Error{Pos: start, Msg: "bad hex literal"}
		}
		text := l.src[lit:l.off]
		if text[1] == 'X' {
			text = "0x" + digits
		}
		return Token{Kind: IntLit, Text: text, Int: int64(v), Pos: start}, nil
	}
	from := l.off
	isFloat := false
	for l.off < len(l.src) {
		c := l.peek()
		if unicode.IsDigit(c) {
			l.advance()
			continue
		}
		if c == '.' && !isFloat {
			isFloat = true
			l.advance()
			continue
		}
		if (c == 'e' || c == 'E') && l.off > from {
			nxt := l.peekAt(1)
			if unicode.IsDigit(nxt) || ((nxt == '+' || nxt == '-') && unicode.IsDigit(l.peekAt(2))) {
				isFloat = true
				l.advance() // e
				l.advance() // sign or digit
				continue
			}
		}
		break
	}
	s := l.src[from:l.off]
	// Swallow suffixes like f, L, u.
	for l.off < len(l.src) {
		c := l.peek()
		if c == 'f' || c == 'F' || c == 'l' || c == 'L' || c == 'u' || c == 'U' {
			if c == 'f' || c == 'F' {
				isFloat = true
			}
			l.advance()
			continue
		}
		break
	}
	if isFloat {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Token{}, &Error{Pos: start, Msg: "bad float literal " + s}
		}
		return Token{Kind: FloatLit, Text: s, Float: v, Pos: start}, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return Token{}, &Error{Pos: start, Msg: "bad int literal " + s}
	}
	return Token{Kind: IntLit, Text: s, Int: v, Pos: start}, nil
}

func isHexDigit(r rune) bool {
	return (r >= '0' && r <= '9') || (r >= 'a' && r <= 'f') || (r >= 'A' && r <= 'F')
}

func (l *Lexer) charLit(start Pos) (Token, error) {
	l.advance() // '
	if l.off >= len(l.src) {
		return Token{}, &Error{Pos: start, Msg: "unterminated char literal"}
	}
	var v rune
	c := l.advance()
	if c == '\\' {
		if l.off >= len(l.src) {
			return Token{}, &Error{Pos: start, Msg: "unterminated escape"}
		}
		e := l.advance()
		switch e {
		case 'n':
			v = '\n'
		case 't':
			v = '\t'
		case '0':
			v = 0
		case '\\':
			v = '\\'
		case '\'':
			v = '\''
		default:
			return Token{}, &Error{Pos: start, Msg: "unknown escape \\" + string(e)}
		}
	} else {
		v = c
	}
	if l.off >= len(l.src) || l.peek() != '\'' {
		return Token{}, &Error{Pos: start, Msg: "unterminated char literal"}
	}
	l.advance()
	return Token{Kind: CharLit, Text: string(v), Int: int64(v), Pos: start}, nil
}

// stringLit lexes a string literal. A literal with no escape and no
// invalid UTF-8 is its own substring of the source; any other is decoded
// rune by rune (an invalid byte decodes to U+FFFD).
func (l *Lexer) stringLit(start Pos) (Token, error) {
	l.advance() // "
	from := l.off
	var sb *strings.Builder
	for {
		if l.off >= len(l.src) {
			return Token{}, &Error{Pos: start, Msg: "unterminated string literal"}
		}
		at := l.off
		c := l.advance()
		if c == '"' {
			break
		}
		plain := c != '\\' && (c != utf8.RuneError || l.off-at > 1)
		if sb == nil && plain {
			continue
		}
		if sb == nil {
			sb = new(strings.Builder)
			sb.WriteString(l.src[from:at])
		}
		if c == '\\' && l.off < len(l.src) {
			e := l.advance()
			switch e {
			case 'n':
				c = '\n'
			case 't':
				c = '\t'
			case '"':
				c = '"'
			case '\\':
				c = '\\'
			default:
				c = e
			}
		}
		sb.WriteRune(c)
	}
	if sb == nil {
		return Token{Kind: StringLit, Text: l.src[from : l.off-1], Pos: start}, nil
	}
	return Token{Kind: StringLit, Text: sb.String(), Pos: start}, nil
}

func (l *Lexer) operator(start Pos) (Token, error) {
	two := func(k Kind, s string) (Token, error) {
		l.advance()
		l.advance()
		return Token{Kind: k, Text: s, Pos: start}, nil
	}
	one := func(k Kind, s string) (Token, error) {
		l.advance()
		return Token{Kind: k, Text: s, Pos: start}, nil
	}
	r := l.peek()
	n := l.peekAt(1)
	switch r {
	case '(':
		return one(LParen, "(")
	case ')':
		return one(RParen, ")")
	case '{':
		return one(LBrace, "{")
	case '}':
		return one(RBrace, "}")
	case '[':
		return one(LBracket, "[")
	case ']':
		return one(RBracket, "]")
	case ',':
		return one(Comma, ",")
	case ';':
		return one(Semi, ";")
	case '?':
		return one(Question, "?")
	case ':':
		return one(Colon, ":")
	case '.':
		return one(Dot, ".")
	case '+':
		switch n {
		case '+':
			return two(Inc, "++")
		case '=':
			return two(PlusAssign, "+=")
		}
		return one(Plus, "+")
	case '-':
		switch n {
		case '-':
			return two(Dec, "--")
		case '=':
			return two(MinusAssign, "-=")
		case '>':
			return two(Arrow, "->")
		}
		return one(Minus, "-")
	case '*':
		if n == '=' {
			return two(StarAssign, "*=")
		}
		return one(Star, "*")
	case '/':
		if n == '=' {
			return two(SlashAssign, "/=")
		}
		return one(Slash, "/")
	case '%':
		if n == '=' {
			return two(PercentAssign, "%=")
		}
		return one(Percent, "%")
	case '&':
		if n == '&' {
			return two(AndAnd, "&&")
		}
		if n == '=' {
			return two(AmpAssign, "&=")
		}
		return one(Amp, "&")
	case '|':
		if n == '|' {
			return two(OrOr, "||")
		}
		if n == '=' {
			return two(PipeAssign, "|=")
		}
		return one(Pipe, "|")
	case '^':
		if n == '=' {
			return two(CaretAssign, "^=")
		}
		return one(Caret, "^")
	case '~':
		return one(Tilde, "~")
	case '<':
		switch n {
		case '<':
			if l.peekAt(2) == '=' {
				l.advance()
				return two(ShlAssign, "<<=")
			}
			return two(Shl, "<<")
		case '=':
			return two(Le, "<=")
		}
		return one(Lt, "<")
	case '>':
		switch n {
		case '>':
			if l.peekAt(2) == '=' {
				l.advance()
				return two(ShrAssign, ">>=")
			}
			return two(Shr, ">>")
		case '=':
			return two(Ge, ">=")
		}
		return one(Gt, ">")
	case '=':
		if n == '=' {
			return two(Eq, "==")
		}
		return one(Assign, "=")
	case '!':
		if n == '=' {
			return two(Ne, "!=")
		}
		return one(Bang, "!")
	}
	return Token{}, &Error{Pos: start, Msg: fmt.Sprintf("unexpected character %q", r)}
}
