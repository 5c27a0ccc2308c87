package sym

// Tape is a flat evaluation program over expressions: their nodes in post
// order, each distinct composite or symbol once (by identity), so shared
// subtrees are evaluated once per pass and no evaluation hashes a node.
// The solver's model search flattens its conjuncts into one tape and
// re-evaluates the spans of the conjuncts a candidate value can change.
// Reset keeps the buffers, so a tape owned by a long-lived caller stops
// allocating once it has grown.
//
// Evaluating a span computes every node in it, in order, into a value and
// a failure flag, and answers exactly as Eval on the span's expression
// does: a node fails when an operand it reads fails, on division by zero,
// on an unbound symbol, on an operand of a type Eval cannot evaluate, and
// when ApplyMath rejects a call. The left operand decides first: && and ||
// that it settles ignore their right operand, failed or not, as Eval's
// short circuit never evaluates it. Values are pure functions of the
// symbol values, so computing a skipped arm anyway changes no answer.
//
// A span may read nodes of spans added before it; those must have been
// evaluated since the symbols they read last changed. A tape is used from
// one goroutine.
type Tape struct {
	nodes []tapeNode
	vals  []Value
	fail  []bool
	args  []int32     // call operands: node indices, one run per call node
	funcs []*MathFunc // called builtins
	// slotOf numbers the symbols by ID; slotVals and bound hold their
	// values (see Set).
	slotOf   map[int]int32
	slotVals []Value
	bound    []bool
	// index maps each composite and symbol to its node while building.
	index  map[Expr]int32
	argBuf []Value
}

// Span is the node range an Add appended and the node holding the added
// expression's value (which may precede the range when the expression was
// already on the tape).
type Span struct {
	from, to, root int32
}

type nodeKind uint8

const (
	nodeConst  nodeKind = iota // value set by Add
	nodeSym                    // a: slot
	nodeUnary                  // a: operand
	nodeBinary                 // a, b: operands
	nodeCall                   // args[a:b], funcs[c]
	nodeBad                    // a node Eval cannot evaluate: always fails
)

type tapeNode struct {
	kind    nodeKind
	op      Op
	a, b, c int32
}

// Reset empties the tape, keeping its buffers.
func (t *Tape) Reset() {
	t.nodes, t.vals, t.fail = t.nodes[:0], t.vals[:0], t.fail[:0]
	t.args, t.funcs = t.args[:0], t.funcs[:0]
	t.slotVals, t.bound = t.slotVals[:0], t.bound[:0]
	clear(t.slotOf)
	clear(t.index)
}

// Add appends the nodes of e not yet on the tape and returns their span.
func (t *Tape) Add(e Expr) Span {
	from := int32(len(t.nodes))
	root := t.node(e)
	return Span{from: from, to: int32(len(t.nodes)), root: root}
}

// Slot returns the value slot of the symbol with the given ID, which the
// tape's nodes of that symbol read; a new slot starts unbound.
func (t *Tape) Slot(id int) int32 {
	s, ok := t.slotOf[id]
	if !ok {
		if t.slotOf == nil {
			t.slotOf = make(map[int]int32)
		}
		s = int32(len(t.slotVals))
		t.slotOf[id] = s
		t.slotVals = append(t.slotVals, Value{})
		t.bound = append(t.bound, false)
	}
	return s
}

// Set binds a slot to v.
func (t *Tape) Set(slot int32, v Value) {
	t.slotVals[slot], t.bound[slot] = v, true
}

func (t *Tape) push(n tapeNode, v Value) int32 {
	t.nodes = append(t.nodes, n)
	t.vals = append(t.vals, v)
	t.fail = append(t.fail, false)
	return int32(len(t.nodes) - 1)
}

// node appends e's operands and then e, unless e is already on the tape,
// and returns e's node.
func (t *Tape) node(e Expr) int32 {
	switch e.(type) {
	case *Binary, *Unary, *Call, *Symbol:
		if i, ok := t.index[e]; ok {
			return i
		}
	}
	var n tapeNode
	switch v := e.(type) {
	case IntConst:
		return t.push(tapeNode{kind: nodeConst}, IntVal(v.V))
	case FloatConst:
		return t.push(tapeNode{kind: nodeConst}, FloatVal(v.V))
	case *Symbol:
		n = tapeNode{kind: nodeSym, a: t.Slot(v.ID)}
	case *Unary:
		n = tapeNode{kind: nodeUnary, op: v.Op, a: t.node(v.X)}
	case *Binary:
		l := t.node(v.L)
		n = tapeNode{kind: nodeBinary, op: v.Op, a: l, b: t.node(v.R)}
	case *Call:
		f := LookupMath(v.Name)
		if f == nil || len(v.Args) != f.Arity {
			n = tapeNode{kind: nodeBad}
			break
		}
		ops := make([]int32, len(v.Args))
		for i, a := range v.Args {
			ops[i] = t.node(a)
		}
		n = tapeNode{kind: nodeCall, a: int32(len(t.args)), b: int32(len(t.args) + len(ops)), c: int32(len(t.funcs))}
		t.args = append(t.args, ops...)
		t.funcs = append(t.funcs, f)
	default:
		return t.push(tapeNode{kind: nodeBad}, Value{})
	}
	i := t.push(n, Value{})
	if t.index == nil {
		t.index = make(map[Expr]int32)
	}
	t.index[e] = i
	return i
}

// Eval evaluates the span's nodes under the current slot values and
// returns the value of its expression, or false where Eval would fail.
func (t *Tape) Eval(s Span) (Value, bool) {
	for i := s.from; i < s.to; i++ {
		n := &t.nodes[i]
		var v Value
		var err error
		ok := true
		switch n.kind {
		case nodeConst:
			continue
		case nodeSym:
			v, ok = t.slotVals[n.a], t.bound[n.a]
		case nodeUnary:
			if ok = !t.fail[n.a]; ok {
				v, err = ApplyUnary(n.op, t.vals[n.a])
				ok = err == nil
			}
		case nodeBinary:
			l := t.vals[n.a]
			switch {
			case t.fail[n.a]:
				ok = false
			case n.op == OpLAnd && l.IsZero():
				v = IntVal(0)
			case n.op == OpLOr && !l.IsZero():
				v = IntVal(1)
			case t.fail[n.b]:
				ok = false
			default:
				v, err = ApplyBinary(n.op, l, t.vals[n.b])
				ok = err == nil
			}
		case nodeCall:
			args := t.argBuf[:0]
			for _, a := range t.args[n.a:n.b] {
				if t.fail[a] {
					ok = false
					break
				}
				args = append(args, t.vals[a])
			}
			t.argBuf = args
			if ok {
				v, err = t.funcs[n.c].Apply(args)
				ok = err == nil
			}
		case nodeBad:
			ok = false
		}
		t.vals[i], t.fail[i] = v, !ok
	}
	return t.vals[s.root], !t.fail[s.root]
}
