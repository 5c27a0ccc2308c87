package sym

// printer is the one writer of expressions in C-like syntax (String is
// Render plus a top-level binary operation's parentheses). Leaves format
// themselves; printer adds the inner nodes' syntax. With limit > 0 it stops
// descending once buf holds more than limit bytes: a DAG that shares
// subterms has a String exponential in its depth, and a bounded rendering
// must cost O(limit), not the string.
type printer struct {
	buf   []byte
	limit int
}

func (p *printer) expr(e Expr) {
	if p.limit > 0 && len(p.buf) > p.limit {
		return
	}
	switch v := e.(type) {
	case *Binary:
		p.buf = append(p.buf, '(')
		p.binary(v)
		p.buf = append(p.buf, ')')
	case *Unary:
		p.buf = append(p.buf, v.Op.String()...)
		p.expr(v.X)
	case *Call:
		p.buf = append(append(p.buf, v.Name...), '(')
		for i, a := range v.Args {
			if i > 0 {
				p.buf = append(p.buf, ", "...)
			}
			p.expr(a)
		}
		p.buf = append(p.buf, ')')
	default:
		p.buf = append(p.buf, e.String()...)
	}
}

// binary writes b without its enclosing parentheses.
func (p *printer) binary(b *Binary) {
	p.expr(b.L)
	p.buf = append(append(append(p.buf, ' '), b.Op.String()...), ' ')
	p.expr(b.R)
}

// Render writes e as reports and path conditions show it: String without
// the parentheses around a top-level binary operation (symbol names hold
// none, so that is exactly one balanced outer pair of String's output).
// With limit > 0 a rendering longer than limit bytes is cut there and
// marked " …(truncated)".
func Render(e Expr, limit int) string {
	p := printer{limit: limit}
	if b, ok := e.(*Binary); ok {
		p.binary(b)
	} else {
		p.expr(e)
	}
	if limit > 0 && len(p.buf) > limit {
		return string(p.buf[:limit]) + " …(truncated)"
	}
	return string(p.buf)
}
