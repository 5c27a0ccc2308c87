package symexec

import (
	"fmt"
	"strings"

	"privacyscope/internal/ir"
	"privacyscope/internal/mem"
	"privacyscope/internal/minic"
)

// Trace records exploded-state snapshots in the style of Table IV: for each
// visited statement, the environment (lvalue → region), the store
// (region → symbolic value) and the path condition π. Recording stops at
// TraceCap rows; further snapshots are counted, not silently discarded.
type Trace struct {
	rows    []TraceRow
	dropped int
}

// TraceRow is one state snapshot.
type TraceRow struct {
	// State is the sequence label (A, B, C, … then S26 past 26).
	State string
	// Stmt is the statement about to be evaluated.
	Stmt string
	// Env lists "lvalue → region" bindings.
	Env []string
	// Store lists "region → value" bindings.
	Store []string
	// PC is the rendered path condition.
	PC string
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Rows returns the snapshots in exploration order.
func (t *Trace) Rows() []TraceRow {
	out := make([]TraceRow, len(t.rows))
	copy(out, t.rows)
	return out
}

// Len returns the number of snapshots.
func (t *Trace) Len() int { return len(t.rows) }

// Dropped returns the number of snapshots discarded past TraceCap.
func (t *Trace) Dropped() int { return t.dropped }

// Render pretty-prints the trace. Truncation is made visible: when rows
// were dropped past TraceCap, a footer reports how many.
func (t *Trace) Render() string {
	var sb strings.Builder
	for _, r := range t.rows {
		fmt.Fprintf(&sb, "state %s: %s\n", r.State, r.Stmt)
		fmt.Fprintf(&sb, "  env:   %s\n", strings.Join(r.Env, ", "))
		fmt.Fprintf(&sb, "  store: %s\n", strings.Join(r.Store, ", "))
		fmt.Fprintf(&sb, "  π:     %s\n", r.PC)
	}
	if t.dropped > 0 {
		fmt.Fprintf(&sb, "… (%d rows omitted)\n", t.dropped)
	}
	return sb.String()
}

func stateLabel(i int) string {
	if i < 26 {
		return string(rune('A' + i))
	}
	return fmt.Sprintf("S%d", i)
}

// bindEnv records lvalue → region in the Table IV environment. Only trace
// rows read the environment, so nothing is recorded unless tracing is on.
func (e *Engine) bindEnv(lvalue string, r mem.Region) {
	if e.opts.TrackTrace {
		e.env.Bind(lvalue, r)
	}
}

// bindEnvExpr is bindEnv for an access expression, rendered only when the
// environment is recorded.
func (e *Engine) bindEnvExpr(x minic.Expr, r mem.Region) {
	if e.opts.TrackTrace {
		e.env.Bind(minic.ExprString(x), r)
	}
}

// snapshot counts the state for the Table IV state metric and, if tracing
// is on, records it under op's source statement — rendered only then — or,
// for a nil op, under label. Rows past TraceCap are counted as dropped
// rather than silently discarded.
func (e *Engine) snapshot(st *state, op ir.Op, label string) {
	e.states++
	if e.res.Trace == nil {
		return
	}
	if e.res.Trace.Len() >= TraceCap {
		e.res.Trace.dropped++
		e.obs.Add("symexec.trace.dropped", 1)
		return
	}
	if op != nil {
		label = op.Display()
	}
	row := TraceRow{
		State: stateLabel(e.res.Trace.Len()),
		Stmt:  label,
		PC:    st.pc.String(),
	}
	for _, b := range e.env.Bindings() {
		row.Env = append(row.Env, b.LValue+" → "+b.Region.String())
	}
	for _, b := range st.store.Bindings() {
		row.Store = append(row.Store, b.Region.String()+" → "+b.Val.String())
	}
	e.res.Trace.rows = append(e.res.Trace.rows, row)
}
