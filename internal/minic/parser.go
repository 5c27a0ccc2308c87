package minic

import (
	"fmt"

	"privacyscope/internal/sym"
)

// Parse parses a MiniC translation unit. The parser pulls tokens from a
// streaming Lexer; a lexical error anywhere in src wins over a parse error,
// so on a parse error the rest of the source is still lexed.
func Parse(src string) (*File, error) {
	p := &parser{lex: NewLexer(src), structs: make(map[string]*StructType)}
	f, err := p.parseFile()
	if err != nil && p.lexErr == nil {
		p.drain()
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// MustParse parses src and panics on error; for fixed fixtures and tests.
func MustParse(src string) *File {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

type parser struct {
	lex *Lexer
	// win is the lookahead window, a ring of n tokens starting at head;
	// the grammar never looks past la(2).
	win     [4]Token
	head, n int
	// lexErr is the first lexical error; the parser sees EOF from there.
	lexErr  error
	structs map[string]*StructType
	// depth counts the nesting levels open on the parser's stack (see
	// MaxNesting).
	depth int
}

// MaxNesting bounds how deeply a source may nest statements and
// expressions. The parser and every later pass recurse on the tree, and a
// Go stack overflow is a fatal error that no panic isolation can catch, so
// a deeper source is refused with a parse error instead. A statement
// counts one level, and so does each assignment, conditional and unary
// expression an expression opens: a prefix operator adds one level, a
// pair of parentheses three. The bound is far above what real code nests
// (4,000 nested ifs take about 8,000 levels), and far enough below what
// overflows the stack that a module nested right up to it still analyzes.
const MaxNesting = 250_000

// nest enters one more level of nesting, failing past MaxNesting; the
// caller defers p.unnest.
func (p *parser) nest() error {
	if p.depth++; p.depth > MaxNesting {
		return &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf("nesting deeper than %d levels", MaxNesting)}
	}
	return nil
}

func (p *parser) unnest() { p.depth-- }

// la returns the token n places past the current one.
func (p *parser) la(n int) Token {
	for p.n <= n {
		p.win[(p.head+p.n)%len(p.win)] = p.pull()
		p.n++
	}
	return p.win[(p.head+n)%len(p.win)]
}

// pull lexes the next token, turning a lexical error into EOF.
func (p *parser) pull() Token {
	if p.lexErr == nil {
		t, err := p.lex.Next()
		if err == nil {
			return t
		}
		p.lexErr = err
	}
	return Token{Kind: EOF, Pos: p.lex.pos()}
}

// drain lexes the rest of the source to find a lexical error past the
// point where parsing stopped.
func (p *parser) drain() {
	for {
		t, err := p.lex.Next()
		if err != nil {
			p.lexErr = err
			return
		}
		if t.Kind == EOF {
			return
		}
	}
}

func (p *parser) cur() Token { return p.la(0) }

func (p *parser) advance() Token {
	t := p.cur()
	if t.Kind != EOF {
		p.head = (p.head + 1) % len(p.win)
		p.n--
	}
	return t
}

func (p *parser) at(k Kind) bool { return p.cur().Kind == k }

func (p *parser) expect(k Kind) (Token, error) {
	if !p.at(k) {
		return Token{}, &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf("expected %v, found %v %q", k, p.cur().Kind, p.cur().Text)}
	}
	return p.advance(), nil
}

func (p *parser) parseFile() (*File, error) {
	f := &File{}
	for !p.at(EOF) {
		if p.at(KwStruct) && p.la(1).Kind == Ident && p.la(2).Kind == LBrace {
			st, err := p.parseStructDef()
			if err != nil {
				return nil, err
			}
			f.Structs = append(f.Structs, st)
			continue
		}
		if p.at(Semi) {
			p.advance()
			continue
		}
		// A declaration: type declarator ...
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		name, err := p.expect(Ident)
		if err != nil {
			return nil, err
		}
		if p.at(LParen) {
			fn, err := p.parseFuncRest(ty, name)
			if err != nil {
				return nil, err
			}
			if fn != nil {
				f.Functions = append(f.Functions, fn)
			}
			continue
		}
		decls, err := p.parseVarDeclRest(ty, name)
		if err != nil {
			return nil, err
		}
		f.Globals = append(f.Globals, decls...)
	}
	return f, nil
}

func (p *parser) parseStructDef() (*StructType, error) {
	p.advance() // struct
	nameTok, err := p.expect(Ident)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	st := &StructType{Name: nameTok.Text}
	p.structs[st.Name] = st
	for !p.at(RBrace) {
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		for {
			fty := ty
			for p.at(Star) {
				p.advance()
				fty = Pointer{Elem: fty}
			}
			fieldTok, err := p.expect(Ident)
			if err != nil {
				return nil, err
			}
			fty, err = p.parseArraySuffix(fty)
			if err != nil {
				return nil, err
			}
			st.Fields = append(st.Fields, Field{Name: fieldTok.Text, Type: fty, Pos: fieldTok.Pos})
			if p.at(Comma) {
				p.advance()
				continue
			}
			break
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
	}
	p.advance() // }
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return st, nil
}

// parseType parses a base type with pointer stars (declarator-level stars
// and array suffixes are handled by callers).
func (p *parser) parseType() (Type, error) {
	for p.at(KwConst) {
		p.advance()
	}
	var base Type
	switch p.cur().Kind {
	case KwVoid:
		p.advance()
		base = Basic{Kind: Void}
	case KwInt:
		p.advance()
		base = Basic{Kind: Int}
	case KwChar:
		p.advance()
		base = Basic{Kind: Char}
	case KwFloat:
		p.advance()
		base = Basic{Kind: Float}
	case KwDouble:
		p.advance()
		base = Basic{Kind: Double}
	case KwLong, KwUnsigned:
		// long / unsigned [int|long|char|double] collapse onto int or
		// double in this model.
		p.advance()
		for p.at(KwLong) || p.at(KwUnsigned) || p.at(KwInt) || p.at(KwChar) {
			p.advance()
		}
		if p.at(KwDouble) {
			p.advance()
			base = Basic{Kind: Double}
		} else {
			base = Basic{Kind: Int}
		}
	case KwStruct:
		p.advance()
		nameTok, err := p.expect(Ident)
		if err != nil {
			return nil, err
		}
		st, ok := p.structs[nameTok.Text]
		if !ok {
			return nil, &Error{Pos: nameTok.Pos, Msg: "unknown struct " + nameTok.Text}
		}
		base = st
	default:
		return nil, &Error{Pos: p.cur().Pos, Msg: "expected type, found " + p.cur().Kind.String()}
	}
	for p.at(Star) {
		p.advance()
		for p.at(KwConst) {
			p.advance()
		}
		base = Pointer{Elem: base}
	}
	return base, nil
}

// isTypeStart reports whether the current token can begin a type.
func (p *parser) isTypeStart() bool {
	switch p.cur().Kind {
	case KwVoid, KwInt, KwChar, KwFloat, KwDouble, KwLong, KwUnsigned, KwConst:
		return true
	case KwStruct:
		return true
	}
	return false
}

func (p *parser) parseArraySuffix(ty Type) (Type, error) {
	var lens []int
	for p.at(LBracket) {
		p.advance()
		n := -1
		if p.at(IntLit) {
			n = int(p.advance().Int)
		} else if p.at(Ident) {
			return nil, &Error{Pos: p.cur().Pos, Msg: "array length must be an integer constant (use #define)"}
		}
		if _, err := p.expect(RBracket); err != nil {
			return nil, err
		}
		lens = append(lens, n)
	}
	for i := len(lens) - 1; i >= 0; i-- {
		ty = Array{Elem: ty, Len: lens[i]}
	}
	return ty, nil
}

func (p *parser) parseFuncRest(ret Type, name Token) (*FuncDecl, error) {
	p.advance() // (
	fn := &FuncDecl{Name: name.Text, Return: ret, Pos: name.Pos}
	if p.at(KwVoid) && p.la(1).Kind == RParen {
		p.advance()
	}
	for !p.at(RParen) {
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		pname := ""
		var ppos Pos
		if p.at(Ident) {
			t := p.advance()
			pname = t.Text
			ppos = t.Pos
		}
		ty, err = p.parseArraySuffix(ty)
		if err != nil {
			return nil, err
		}
		// Array parameters decay to pointers.
		if arr, ok := ty.(Array); ok {
			ty = Pointer{Elem: arr.Elem}
		}
		fn.Params = append(fn.Params, &VarDecl{Name: pname, Type: ty, Pos: ppos})
		if p.at(Comma) {
			p.advance()
		}
	}
	p.advance() // )
	if p.at(Semi) {
		p.advance() // prototype: record with nil body
		fn.Body = nil
		return fn, nil
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) parseVarDeclRest(ty Type, name Token) ([]*VarDecl, error) {
	var decls []*VarDecl
	cur := name
	curTy := ty
	for {
		dty, err := p.parseArraySuffix(curTy)
		if err != nil {
			return nil, err
		}
		d := &VarDecl{Name: cur.Text, Type: dty, Pos: cur.Pos}
		if p.at(Assign) {
			p.advance()
			init, err := p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		decls = append(decls, d)
		if p.at(Comma) {
			p.advance()
			extraTy := ty
			for p.at(Star) {
				p.advance()
				extraTy = Pointer{Elem: extraTy}
			}
			nt, err := p.expect(Ident)
			if err != nil {
				return nil, err
			}
			cur = nt
			curTy = extraTy
			continue
		}
		break
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return decls, nil
}

func (p *parser) parseBlock() (*Block, error) {
	lb, err := p.expect(LBrace)
	if err != nil {
		return nil, err
	}
	b := &Block{Pos: lb.Pos}
	for !p.at(RBrace) {
		if p.at(EOF) {
			return nil, &Error{Pos: p.cur().Pos, Msg: "unterminated block"}
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.advance() // }
	return b, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	tok := p.cur()
	switch tok.Kind {
	case LBrace:
		return p.parseBlock()
	case Semi:
		p.advance()
		return &EmptyStmt{Pos: tok.Pos}, nil
	case KwIf:
		return p.parseIf()
	case KwWhile:
		return p.parseWhile()
	case KwFor:
		return p.parseFor()
	case KwDo:
		return p.parseDoWhile()
	case KwSwitch:
		return p.parseSwitch()
	case KwReturn:
		p.advance()
		var x Expr
		if !p.at(Semi) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			x = e
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &ReturnStmt{X: x, Pos: tok.Pos}, nil
	case KwBreak:
		p.advance()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &BreakStmt{Pos: tok.Pos}, nil
	case KwContinue:
		p.advance()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &ContinueStmt{Pos: tok.Pos}, nil
	}
	if p.isTypeStart() {
		return p.parseDeclStmt()
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return &ExprStmt{X: e, Pos: tok.Pos}, nil
}

// parseBody parses the body of an if, else, while, for or do: a statement
// that is not a declaration, which C does not allow there. The rule keeps
// every use of a local dominated by its declaration.
func (p *parser) parseBody(what string) (Stmt, error) {
	if p.isTypeStart() {
		return nil, &Error{Pos: p.cur().Pos, Msg: "a declaration cannot be the body of " + what}
	}
	return p.parseStmt()
}

func (p *parser) parseDeclStmt() (Stmt, error) {
	pos := p.cur().Pos
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(Ident)
	if err != nil {
		return nil, err
	}
	decls, err := p.parseVarDeclRest(ty, name)
	if err != nil {
		return nil, err
	}
	return &DeclStmt{Decls: decls, Pos: pos}, nil
}

func (p *parser) parseIf() (Stmt, error) {
	pos := p.advance().Pos // if
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	thenS, err := p.parseBody("if")
	if err != nil {
		return nil, err
	}
	var elseS Stmt
	if p.at(KwElse) {
		p.advance()
		elseS, err = p.parseBody("else")
		if err != nil {
			return nil, err
		}
	}
	return &IfStmt{Cond: cond, Then: thenS, Else: elseS, Pos: pos}, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	pos := p.advance().Pos // while
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.parseBody("while")
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, Pos: pos}, nil
}

func (p *parser) parseFor() (Stmt, error) {
	pos := p.advance().Pos // for
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	st := &ForStmt{Pos: pos}
	if !p.at(Semi) {
		if p.isTypeStart() {
			init, err := p.parseDeclStmt() // consumes the semicolon
			if err != nil {
				return nil, err
			}
			st.Init = init
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Init = &ExprStmt{X: e, Pos: e.Position()}
			if _, err := p.expect(Semi); err != nil {
				return nil, err
			}
		}
	} else {
		p.advance()
	}
	if !p.at(Semi) {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Cond = cond
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	if !p.at(RParen) {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Post = post
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.parseBody("for")
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

// Expression parsing, C precedence.

func (p *parser) parseExpr() (Expr, error) { return p.parseAssignExpr() }

var compoundOps = map[Kind]sym.Op{
	PlusAssign:    sym.OpAdd,
	MinusAssign:   sym.OpSub,
	StarAssign:    sym.OpMul,
	SlashAssign:   sym.OpDiv,
	PercentAssign: sym.OpRem,
	CaretAssign:   sym.OpXor,
	AmpAssign:     sym.OpAnd,
	PipeAssign:    sym.OpOr,
	ShlAssign:     sym.OpShl,
	ShrAssign:     sym.OpShr,
}

func (p *parser) parseAssignExpr() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	lhs, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	tok := p.cur()
	if tok.Kind == Assign {
		p.advance()
		rhs, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		return &AssignExpr{LHS: lhs, RHS: rhs, Pos: tok.Pos}, nil
	}
	if op, ok := compoundOps[tok.Kind]; ok {
		p.advance()
		rhs, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		return &AssignExpr{Op: op, LHS: lhs, RHS: rhs, Pos: tok.Pos}, nil
	}
	return lhs, nil
}

func (p *parser) parseTernary() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	cond, err := p.parseBin(1)
	if err != nil {
		return nil, err
	}
	if !p.at(Question) {
		return cond, nil
	}
	pos := p.advance().Pos
	thenE, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Colon); err != nil {
		return nil, err
	}
	elseE, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &CondExpr{Cond: cond, Then: thenE, Else: elseE, Pos: pos}, nil
}

var cBinPrec = map[Kind]int{
	OrOr:   1,
	AndAnd: 2,
	Pipe:   3,
	Caret:  4,
	Amp:    5,
	Eq:     6, Ne: 6,
	Lt: 7, Le: 7, Gt: 7, Ge: 7,
	Shl: 8, Shr: 8,
	Plus: 9, Minus: 9,
	Star: 10, Slash: 10, Percent: 10,
}

var cBinOps = map[Kind]sym.Op{
	OrOr: sym.OpLOr, AndAnd: sym.OpLAnd,
	Pipe: sym.OpOr, Caret: sym.OpXor, Amp: sym.OpAnd,
	Eq: sym.OpEq, Ne: sym.OpNe,
	Lt: sym.OpLt, Le: sym.OpLe, Gt: sym.OpGt, Ge: sym.OpGe,
	Shl: sym.OpShl, Shr: sym.OpShr,
	Plus: sym.OpAdd, Minus: sym.OpSub,
	Star: sym.OpMul, Slash: sym.OpDiv, Percent: sym.OpRem,
}

func (p *parser) parseBin(minPrec int) (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		tok := p.cur()
		prec, ok := cBinPrec[tok.Kind]
		if !ok || prec < minPrec {
			return left, nil
		}
		p.advance()
		right, err := p.parseBin(prec + 1)
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: cBinOps[tok.Kind], L: left, R: right, Pos: tok.Pos}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	tok := p.cur()
	switch tok.Kind {
	case Minus:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: sym.OpNeg, X: x, Pos: tok.Pos}, nil
	case Bang:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: sym.OpLNot, X: x, Pos: tok.Pos}, nil
	case Tilde:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: sym.OpNot, X: x, Pos: tok.Pos}, nil
	case Star:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &DerefExpr{X: x, Pos: tok.Pos}, nil
	case Amp:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &AddrExpr{X: x, Pos: tok.Pos}, nil
	case Inc, Dec:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &IncDecExpr{X: x, Decr: tok.Kind == Dec, Prefix: true, Pos: tok.Pos}, nil
	case Plus:
		p.advance()
		return p.parseUnary()
	case KwSizeof:
		p.advance()
		if p.at(LParen) && p.typeStartsAt(1) {
			p.advance()
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			return &SizeofExpr{Ty: ty, Pos: tok.Pos}, nil
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &SizeofExpr{X: x, Pos: tok.Pos}, nil
	case LParen:
		// Cast: (type) unary.
		if p.typeStartsAt(1) {
			p.advance()
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &CastExpr{To: ty, X: x, Pos: tok.Pos}, nil
		}
	}
	return p.parsePostfix()
}

// typeStartsAt reports whether the token at lookahead n begins a type.
func (p *parser) typeStartsAt(n int) bool {
	switch p.la(n).Kind {
	case KwVoid, KwInt, KwChar, KwFloat, KwDouble, KwLong, KwUnsigned, KwConst, KwStruct:
		return true
	}
	return false
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		tok := p.cur()
		switch tok.Kind {
		case LBracket:
			p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
			x = &IndexExpr{X: x, Index: idx, Pos: tok.Pos}
		case Dot:
			p.advance()
			f, err := p.expect(Ident)
			if err != nil {
				return nil, err
			}
			x = &MemberExpr{X: x, Field: f.Text, Pos: tok.Pos}
		case Arrow:
			p.advance()
			f, err := p.expect(Ident)
			if err != nil {
				return nil, err
			}
			x = &MemberExpr{X: x, Field: f.Text, Arrow: true, Pos: tok.Pos}
		case Inc, Dec:
			p.advance()
			x = &IncDecExpr{X: x, Decr: tok.Kind == Dec, Pos: tok.Pos}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	tok := p.cur()
	switch tok.Kind {
	case IntLit, CharLit:
		p.advance()
		return &IntLitExpr{V: tok.Int, Pos: tok.Pos}, nil
	case FloatLit:
		p.advance()
		return &FloatLitExpr{V: tok.Float, Pos: tok.Pos}, nil
	case StringLit:
		p.advance()
		return &StringLitExpr{V: tok.Text, Pos: tok.Pos}, nil
	case Ident:
		name := p.advance()
		if p.at(LParen) {
			p.advance()
			call := &CallExpr{Fun: name.Text, Pos: name.Pos}
			for !p.at(RParen) {
				arg, err := p.parseAssignExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if p.at(Comma) {
					p.advance()
				}
			}
			p.advance() // )
			return call, nil
		}
		return &IdentExpr{Name: name.Text, Pos: name.Pos}, nil
	case LParen:
		p.advance()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return x, nil
	default:
		return nil, &Error{Pos: tok.Pos, Msg: fmt.Sprintf("expected expression, found %v %q", tok.Kind, tok.Text)}
	}
}

func (p *parser) parseDoWhile() (Stmt, error) {
	pos := p.advance().Pos // do
	body, err := p.parseBody("do")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(KwWhile); err != nil {
		return nil, err
	}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return &DoWhileStmt{Body: body, Cond: cond, Pos: pos}, nil
}

func (p *parser) parseSwitch() (Stmt, error) {
	pos := p.advance().Pos // switch
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	tag, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	st := &SwitchStmt{Tag: tag, Pos: pos}
	for !p.at(RBrace) {
		var c SwitchCase
		tok := p.cur()
		switch tok.Kind {
		case KwCase:
			p.advance()
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			c = SwitchCase{Value: v, Pos: tok.Pos}
		case KwDefault:
			p.advance()
			c = SwitchCase{IsDefault: true, Pos: tok.Pos}
		default:
			return nil, &Error{Pos: tok.Pos, Msg: "expected case or default in switch"}
		}
		if _, err := p.expect(Colon); err != nil {
			return nil, err
		}
		for !p.at(KwCase) && !p.at(KwDefault) && !p.at(RBrace) {
			if p.at(EOF) {
				return nil, &Error{Pos: p.cur().Pos, Msg: "unterminated switch"}
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			c.Body = append(c.Body, s)
		}
		st.Cases = append(st.Cases, c)
	}
	p.advance() // }
	return st, nil
}
