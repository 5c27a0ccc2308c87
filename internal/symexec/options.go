// Package symexec implements path-sensitive symbolic execution for MiniC
// with the region-based memory model of §VI-B. It is the engine underneath
// the PrivacyScope checker: it explores the exploded state graph
// (stmt, env, σ, π), forking at branches and recording everything an
// observer outside the enclave can see — [out]-parameter writes, return
// values, and OCALL arguments — together with the path condition under
// which each observation happens.
package symexec

import (
	"privacyscope/internal/mem"
	"privacyscope/internal/minic"
	"privacyscope/internal/obs"
	"privacyscope/internal/solver"
	"privacyscope/internal/sym"
)

// ParamClass classifies an entry-point parameter, mirroring EDL attributes.
type ParamClass int

// Parameter classes.
const (
	// ParamPublic is a low input: attacker-known.
	ParamPublic ParamClass = iota + 1
	// ParamSecret is an [in] parameter carrying user private data; every
	// element read from it becomes a distinct secret symbol.
	ParamSecret
	// ParamOut is an [out] parameter: whatever the enclave writes there
	// is observable by the untrusted host.
	ParamOut
	// ParamInOut is both: secret on entry, observable on exit.
	ParamInOut
)

// String names the class in EDL notation.
func (c ParamClass) String() string {
	switch c {
	case ParamPublic:
		return "public"
	case ParamSecret:
		return "[in]"
	case ParamOut:
		return "[out]"
	case ParamInOut:
		return "[in,out]"
	}
	return "?"
}

// ParamSpec assigns a class to one entry-point parameter by name.
type ParamSpec struct {
	Name  string
	Class ParamClass
}

// Options configures the engine.
type Options struct {
	// LoopBound is the maximum number of times a loop with a *symbolic*
	// condition is unrolled per path (concrete-condition loops run to
	// completion under MaxSteps). 0 means DefaultLoopBound.
	LoopBound int
	// MaxPaths bounds the number of completed paths. 0 means
	// DefaultMaxPaths.
	MaxPaths int
	// MaxSteps bounds total statement evaluations. 0 means
	// DefaultMaxSteps.
	MaxSteps int
	// InlineDepth bounds call inlining. 0 means DefaultInlineDepth.
	InlineDepth int
	// PruneInfeasible uses the solver to drop unsatisfiable branches.
	PruneInfeasible bool
	// TrackTrace records Table-IV-style state snapshots.
	TrackTrace bool
	// DecryptFuncs lists functions whose destination buffer is
	// re-symbolized as fresh secret data (the IPP decryption list of
	// §VI-B). Keys are function names; the value is the 0-based argument
	// index of the destination pointer.
	DecryptFuncs map[string]int
	// OCallFuncs lists functions whose arguments escape the enclave
	// (OCALL sinks). Keys are function names.
	OCallFuncs map[string]bool
	// ConservativeExterns makes calls to unmodeled external functions
	// return fresh *secret* symbols instead of unconstrained public
	// values. Off by default (it manufactures leak reports from any
	// extern result reaching a sink), but available for high-assurance
	// audits where unmodeled code must not silently launder taint.
	ConservativeExterns bool
	// Intrinsics gives front ends custom call models keyed by function
	// name, dispatched before every built-in model. The PRIML adapter
	// registers its get_secret/declassify semantics here, so declassify
	// checking runs inside the shared engine instead of a second
	// interpreter.
	Intrinsics map[string]IntrinsicFunc
	// NoteHook receives ir.NoteOp payloads with a read-only view of the
	// current state. Notes execute at zero cost (no step, no snapshot);
	// the PRIML adapter uses them to emit Table II/III trace rows.
	NoteHook func(view StateView, data any)
	// ZeroDefaultVars makes reads of never-written scalar variables
	// evaluate to the integer 0 instead of conjuring fresh symbolic
	// inputs, without binding the zero into the store (PRIML's
	// default-zero store semantics, §V-B).
	ZeroDefaultVars bool
	// Obs receives engine telemetry (symexec.* counters, path-depth
	// distributions). Nil means the no-op observer: instrumentation stays
	// in place but costs nothing. See docs/OBSERVABILITY.md.
	Obs obs.Observer
	// SummaryTable is the per-function summary map built by
	// BuildSummaryTable; calls resolve through it wherever a summary
	// applies, with results identical to inlining. Nil inlines every call;
	// TrackTrace or NoteHook force inlining too (they observe callee-body
	// execution). Read-only; safe to share across engines.
	SummaryTable *SummaryTable
	// RecordPtrEscapes records, for every OCALL pointer argument, the
	// values bound under the pointed-to region at call time
	// (SinkEvent.PtrArgs). The ocall-pointer and orderliness detector
	// packs consume them; off by default so the scalar-only sink model —
	// and its cost — is unchanged. Callers that set it build no
	// SummaryTable (summaries replay effects, not events).
	RecordPtrEscapes bool
	// RecordSecretAccess records secret-tainted branch conditions at fork
	// points (PathResult.SecretBranches) and secret-tainted symbolic array
	// indices (PathResult.SecretAccesses) for the access-pattern detector
	// pack. Off by default; builds no SummaryTable, like RecordPtrEscapes.
	RecordSecretAccess bool
	// InitFuncs names lifecycle init/gate functions; every call to one is
	// recorded per path (PathResult.Inits) with its sequence number
	// relative to the path's OCALLs, so the orderliness pack can replay
	// the entry order. Nil disables recording.
	InitFuncs map[string]bool
}

// Defaults.
const (
	DefaultLoopBound   = 8
	DefaultMaxPaths    = 4096
	DefaultMaxSteps    = 2_000_000
	DefaultInlineDepth = 16
	// TraceCap bounds recorded snapshots.
	TraceCap = 512
)

// DefaultOptions returns the standard engine configuration.
func DefaultOptions() Options {
	return Options{
		PruneInfeasible: true,
		DecryptFuncs:    map[string]int{"sgx_rijndael128GCM_decrypt": 0},
		OCallFuncs:      map[string]bool{"printf": true, "ocall_print": true},
	}
}

func (o Options) loopBound() int {
	if o.LoopBound <= 0 {
		return DefaultLoopBound
	}
	return o.LoopBound
}

func (o Options) maxPaths() int {
	if o.MaxPaths <= 0 {
		return DefaultMaxPaths
	}
	return o.MaxPaths
}

func (o Options) maxSteps() int {
	if o.MaxSteps <= 0 {
		return DefaultMaxSteps
	}
	return o.MaxSteps
}

func (o Options) inlineDepth() int {
	if o.InlineDepth <= 0 {
		return DefaultInlineDepth
	}
	return o.InlineDepth
}

// OutWrite is one observable write to an [out] parameter element.
type OutWrite struct {
	// Param is the parameter name, Region the written element.
	Param  string
	Region mem.Region
	// Display is the element in source notation, e.g. "output[0]".
	Display string
	// Value is the symbolic value visible to the host after the ECALL.
	Value sym.Expr
}

// SinkEvent is one OCALL whose arguments escape the enclave mid-path.
type SinkEvent struct {
	Func string
	Pos  minic.Pos
	Args []sym.Expr
	PC   *solver.PathCondition
	// Seq orders this OCALL against the path's lifecycle events (shared
	// per-path counter; see PathResult.Inits).
	Seq int
	// PtrArgs lists pointer arguments and the values reachable through
	// them at call time (only when Options.RecordPtrEscapes).
	PtrArgs []PtrEscape
}

// PtrEscape is one OCALL pointer argument: everything bound under the
// pointed-to region escapes to untrusted memory when the call crosses the
// enclave boundary.
type PtrEscape struct {
	// Arg is the 0-based argument index.
	Arg int
	// Display names the pointed-to region root in source notation.
	Display string
	// Cells are the bound scalar elements, sorted by display name.
	Cells []EscapeCell
}

// EscapeCell is one scalar value reachable through an escaping pointer.
type EscapeCell struct {
	Display string
	Value   sym.Expr
}

// LifecycleEvent is one call to an Options.InitFuncs function on a path.
type LifecycleEvent struct {
	Func string
	Pos  minic.Pos
	// Seq orders the call against the path's OCALLs (shared counter).
	Seq int
}

// BranchEvent is one fork on a secret-tainted condition (recorded under
// Options.RecordSecretAccess). Both forked successors inherit the event:
// the branch is observable on either outcome.
type BranchEvent struct {
	Pos  minic.Pos
	Cond sym.Expr
}

// AccessEvent is one memory access through a secret-tainted symbolic index
// (recorded under Options.RecordSecretAccess).
type AccessEvent struct {
	Pos minic.Pos
	// Display names the accessed region in source notation ("table[*]").
	Display string
	// Index is the tainted index expression.
	Index sym.Expr
}

// PathResult is the observable outcome of one completed execution path.
type PathResult struct {
	// PC is the full path condition.
	PC *solver.PathCondition
	// Return is the function's return value (nil for void paths).
	Return sym.Expr
	// ReturnPos is the source position of the return statement.
	ReturnPos minic.Pos
	// Outs lists the [out]-parameter writes visible at path end.
	Outs []OutWrite
	// Ocalls lists mid-path OCALL observations.
	Ocalls []SinkEvent
	// Incomplete is true when the path was cut by the loop bound or the
	// step budget; findings remain sound but may be incomplete.
	Incomplete bool
	// Cost counts statements executed along the path — the abstract
	// execution-time model behind the timing-channel extension the paper
	// sketches in §VIII-A ("simulate the execution time for program
	// paths and detect if execution time depends on secret").
	Cost int
	// Inits lists lifecycle init-function calls in execution order (only
	// when Options.InitFuncs is set).
	Inits []LifecycleEvent
	// SecretBranches lists forks on secret-tainted conditions (only when
	// Options.RecordSecretAccess).
	SecretBranches []BranchEvent
	// SecretAccesses lists memory accesses through secret-tainted indices
	// (only when Options.RecordSecretAccess).
	SecretAccesses []AccessEvent
}

// Result aggregates the exploration of one entry function.
type Result struct {
	// Function is the analyzed entry point.
	Function string
	// Paths are the completed execution paths.
	Paths []*PathResult
	// Builder owns all symbols minted during the run.
	Builder *sym.Builder
	// SecretSymbols maps display names (e.g. "secrets[0]") to symbols.
	SecretSymbols map[string]*sym.Symbol
	// Trace is the Table-IV-style exploration snapshot log (nil unless
	// TrackTrace).
	Trace *Trace
	// TraceTruncated counts state snapshots dropped past TraceCap; when
	// non-zero, Trace.Render appends an "… (N rows omitted)" footer.
	TraceTruncated int
	// States counts exploded states (trace rows would show them).
	States int
	// Regions counts distinct memory regions created.
	Regions int
	// Coverage records how much of the path space the exploration visited
	// and why it stopped, when it stopped early. Budget exhaustion,
	// deadlines and cancellation truncate the exploration instead of
	// failing it: Paths holds everything completed before the cut.
	Coverage Coverage
	// Warnings lists soft diagnostics (loop bounds hit, budget cuts).
	Warnings []string
}

// SecretSymbolByTag finds the secret symbol with the given taint tag.
func (r *Result) SecretSymbolByTag(tag int) *sym.Symbol {
	for _, s := range r.SecretSymbols {
		if int(s.Tag) == tag {
			return s
		}
	}
	return nil
}
