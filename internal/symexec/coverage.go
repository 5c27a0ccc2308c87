package symexec

import "errors"

// TruncReason says why an exploration stopped before exhausting the path
// space. The empty reason means the exploration ran to completion.
type TruncReason string

// Truncation reasons.
const (
	// TruncNone: the exploration completed normally.
	TruncNone TruncReason = ""
	// TruncPathBudget: MaxPaths completed paths were collected and further
	// paths remained.
	TruncPathBudget TruncReason = "path-budget"
	// TruncStepBudget: MaxSteps statement evaluations were spent.
	TruncStepBudget TruncReason = "step-budget"
	// TruncDeadline: the context's deadline expired mid-exploration.
	TruncDeadline TruncReason = "deadline"
	// TruncCancelled: the context was cancelled mid-exploration.
	TruncCancelled TruncReason = "cancelled"
	// TruncInlineDepth: a call chain exceeded InlineDepth, so a callee was
	// skipped (statement position) or returned unconstrained (expression
	// position). The exploration continued, but its observations
	// under-approximate the program: a no-findings run is Inconclusive,
	// not Secure.
	TruncInlineDepth TruncReason = "inline-depth"
	// TruncPairBudget: set after exploration by a detector (internal/detect)
	// whose sibling-path comparisons hit their budget: the paths were all
	// explored, but some pairs of them were never compared, so a
	// no-findings run is Inconclusive, not Secure.
	TruncPairBudget TruncReason = "pair-budget"
)

// Coverage summarizes how much of the path space an exploration visited.
// A truncated exploration still yields every path completed so far — the
// checker downgrades its verdict rather than discarding the work — so
// Coverage is the record consumers need to interpret a partial result.
type Coverage struct {
	// CompletedPaths counts paths explored end to end.
	CompletedPaths int `json:"completedPaths"`
	// IncompletePaths counts completed paths that were internally cut by
	// the loop bound (sound but under-approximate within the path).
	IncompletePaths int `json:"incompletePaths,omitempty"`
	// PrunedPaths counts branches dropped as provably infeasible.
	PrunedPaths int `json:"prunedPaths,omitempty"`
	// StepsUsed counts statement evaluations spent.
	StepsUsed int `json:"stepsUsed"`
	// Truncated is true when the exploration stopped early, or when a
	// detector left sibling pairs uncompared (TruncPairBudget); Reason says
	// which. A truncated run must never be reported as exhaustive.
	Truncated bool        `json:"truncated"`
	Reason    TruncReason `json:"reason,omitempty"`
}

// Partial reports whether any part of the path space may have been missed:
// either the exploration was cut short, or individual paths were cut by the
// loop bound.
func (c Coverage) Partial() bool { return c.Truncated }

// errStopExploration is the internal sentinel that unwinds the
// continuation-passing exploration when a budget, deadline or cancellation
// fires. AnalyzeFunction converts it into a truncated-but-valid Result; it
// never escapes the engine.
var errStopExploration = errors.New("symexec: exploration stopped")

// stop records the first truncation reason and returns the unwind sentinel;
// every later step() then returns the sentinel too.
func (e *Engine) stop(reason TruncReason) error {
	e.markTruncated(reason)
	e.stopped = true
	return errStopExploration
}

// markTruncated records a truncation reason without halting exploration —
// for degradations that under-approximate a path (skipped calls) rather
// than cutting the path space. First reason wins, same as stop.
func (e *Engine) markTruncated(reason TruncReason) {
	if e.trunc == TruncNone {
		e.trunc = reason
	}
}
