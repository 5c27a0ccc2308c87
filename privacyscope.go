// Package privacyscope is the public API of the PrivacyScope reproduction:
// a static analyzer that detects leakage of private data by code intended
// to run inside a TEE (Intel SGX) enclave, by finding violations of the
// nonreversibility property (ICDCS 2020).
//
// Quick start:
//
//	report, err := privacyscope.AnalyzeEnclave(cSource, edlSource)
//	if err != nil { ... }
//	fmt.Print(report.Render())
//
// AnalyzeEnclave parses the enclave C code and its EDL interface file,
// symbolically executes every public ECALL with [in] parameters treated as
// secrets and [out] parameters (plus return values and OCALLs) treated as
// observable, and reports every explicit and implicit nonreversibility
// violation, each with a recovery formula and — where possible — a
// concretely replayed two-run witness.
package privacyscope

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"privacyscope/internal/core"
	"privacyscope/internal/detect"
	"privacyscope/internal/edl"
	"privacyscope/internal/ir"
	"privacyscope/internal/minic"
	"privacyscope/internal/obs"
	"privacyscope/internal/priml"
	"privacyscope/internal/symexec"
)

// Re-exported result types. See the internal/core documentation for field
// details.
type (
	// Report is the per-entry-point analysis outcome.
	Report = core.Report
	// Finding is one nonreversibility violation.
	Finding = core.Finding
	// Witness is a replayed two-run leak confirmation.
	Witness = core.Witness
	// ParamSpec classifies one entry parameter.
	ParamSpec = symexec.ParamSpec
	// Verdict is the four-valued per-function outcome; see the constants
	// below and docs/ROBUSTNESS.md.
	Verdict = core.Verdict
	// Coverage summarizes how much of the path space an analysis explored
	// and why it stopped early, when it did.
	Coverage = symexec.Coverage
	// TruncReason says why an exploration was cut (path budget, step
	// budget, deadline, cancellation).
	TruncReason = symexec.TruncReason
)

// Verdicts, re-exported. A truncated exploration that found nothing is
// Inconclusive, never Secure.
const (
	VerdictSecure       = core.VerdictSecure
	VerdictInconclusive = core.VerdictInconclusive
	VerdictError        = core.VerdictError
	VerdictFindings     = core.VerdictFindings
)

// Truncation reasons, re-exported.
const (
	TruncNone       = symexec.TruncNone
	TruncPathBudget = symexec.TruncPathBudget
	TruncStepBudget = symexec.TruncStepBudget
	TruncDeadline   = symexec.TruncDeadline
	TruncCancelled  = symexec.TruncCancelled
	// TruncInlineDepth: a call chain exceeded the inline depth and a
	// callee was skipped. That under-approximates the program, so a clean
	// run reads Inconclusive.
	TruncInlineDepth = symexec.TruncInlineDepth
	// TruncPairBudget: a detector's sibling-path comparisons hit their
	// budget, so some pairs of explored paths were never compared.
	TruncPairBudget = symexec.TruncPairBudget
)

// Telemetry types, re-exported from internal/obs so callers can receive
// spans, counters and events without importing internal packages. See
// docs/OBSERVABILITY.md for the metric-name registry.
type (
	// Observer receives analysis telemetry; pass one via WithObserver.
	Observer = obs.Observer
	// Span is one timed phase of the analysis.
	Span = obs.Span
	// Field is a key/value attachment on an event.
	Field = obs.Field
	// Metrics is the standard in-memory Observer implementation.
	Metrics = obs.Metrics
	// MetricsOption configures NewMetrics.
	MetricsOption = obs.MetricsOption
	// MetricsSnapshot is a point-in-time JSON-marshalable metrics view.
	MetricsSnapshot = obs.Snapshot
	// Tracer records span instances of one analysis; run it next to a
	// Metrics via Multi and export with Snapshot or WriteChromeTrace.
	Tracer = obs.Tracer
	// TracerOption configures NewTracer.
	TracerOption = obs.TracerOption
	// TraceSnapshot is the compact JSON span tree of one traced analysis.
	TraceSnapshot = obs.TraceSnapshot
	// TraceSpan is one node of a TraceSnapshot.
	TraceSpan = obs.TraceSpan
)

// NewMetrics returns a concurrency-safe in-memory Observer that aggregates
// counters, span timings and distributions.
func NewMetrics(opts ...MetricsOption) *Metrics { return obs.NewMetrics(opts...) }

// WithEventWriter makes a Metrics observer stream structured JSON event
// lines to w as the analysis runs.
func WithEventWriter(w io.Writer) MetricsOption { return obs.WithEventWriter(w) }

// NewTracer returns a per-analysis tracer: where Metrics aggregates by
// span name, the Tracer records every span instance with parent links into
// a bounded buffer, exportable as a span tree or a Chrome trace-event file.
func NewTracer(opts ...TracerOption) *Tracer { return obs.NewTracer(opts...) }

// WithTraceCap bounds a Tracer's span buffer; past it spans are counted
// as dropped rather than recorded (n ≤ 0 keeps the default).
func WithTraceCap(n int) TracerOption { return obs.WithTraceCap(n) }

// WithTraceID pins a Tracer's trace ID (e.g. one taken from an incoming
// W3C traceparent header) instead of generating a fresh one.
func WithTraceID(id string) TracerOption { return obs.WithTraceID(id) }

// MultiObserver fans telemetry out to several observers — the way to run
// Metrics aggregation and a Tracer side by side on one analysis.
func MultiObserver(os ...Observer) Observer { return obs.Multi(os...) }

// Leak kinds and sink kinds, re-exported. The last four kinds are the
// scenario packs of the detector registry (docs/DETECTORS.md); enable them
// with WithDetectors or the rule file's <detectors> block.
const (
	ExplicitLeak      = core.ExplicitLeak
	ImplicitLeak      = core.ImplicitLeak
	TimingLeak        = core.TimingLeak
	ProbabilisticLeak = core.ProbabilisticLeak
	OcallPtrLeak      = core.OcallPtrLeak
	ErrCodeLeak       = core.ErrCodeLeak
	OrderlinessLeak   = core.OrderlinessLeak
	AccessPatternLeak = core.AccessPatternLeak

	SinkOutParam = core.SinkOutParam
	SinkReturn   = core.SinkReturn
	SinkOCall    = core.SinkOCall
	SinkBranch   = core.SinkBranch
	SinkMemory   = core.SinkMemory
)

// DetectorNames lists every registered leak detector in execution order:
// the four built-in checks ("explicit", "implicit", "timing",
// "probabilistic") and the scenario packs ("ocall-pointer",
// "errcode-channel", "orderliness", "access-pattern").
func DetectorNames() []string { return detect.Names() }

// Parameter classes, re-exported.
const (
	ParamPublic = symexec.ParamPublic
	ParamSecret = symexec.ParamSecret
	ParamOut    = symexec.ParamOut
	ParamInOut  = symexec.ParamInOut
)

// ErrNoECalls is returned when the EDL declares no public trusted calls.
var ErrNoECalls = errors.New("privacyscope: EDL declares no public ECALLs")

// Option configures an analysis.
type Option func(*config)

type config struct {
	checker     core.Options
	configXML   []byte
	parallelism int
	detectors   []string
}

func newConfig(opts []Option) *config {
	cfg := &config{checker: core.DefaultOptions(), parallelism: 1}
	for _, o := range opts {
		o(cfg)
	}
	return cfg
}

// WithConfigXML supplies the user rule file (§V-C): per-function parameter
// overrides, extra decrypt functions, extra OCALL sinks.
func WithConfigXML(data []byte) Option {
	return func(c *config) { c.configXML = append([]byte(nil), data...) }
}

// WithLoopBound overrides the symbolic loop unrolling bound.
func WithLoopBound(n int) Option {
	return func(c *config) { c.checker.Engine.LoopBound = n }
}

// WithMaxPaths overrides the path budget. Exhausting it degrades the
// affected function's report (partial Coverage, Inconclusive verdict when
// nothing was found) instead of failing the analysis.
func WithMaxPaths(n int) Option {
	return func(c *config) { c.checker.Engine.MaxPaths = n }
}

// WithMaxSteps overrides the statement-evaluation budget, with the same
// fail-soft behavior as WithMaxPaths.
func WithMaxSteps(n int) Option {
	return func(c *config) { c.checker.Engine.MaxSteps = n }
}

// WithDeadline bounds each entry point's analysis wall-clock time. A
// function that exceeds it keeps every path completed so far and is
// reported as Inconclusive (or with its findings, if any were already
// detected) — the remaining entry points still analyze with their own full
// budget.
func WithDeadline(d time.Duration) Option {
	return func(c *config) { c.checker.Deadline = d }
}

// WithoutWitnessReplay disables concrete witness construction.
func WithoutWitnessReplay() Option {
	return func(c *config) { c.checker.ReplayWitness = false }
}

// WithoutPruning disables solver-based infeasible-path pruning.
func WithoutPruning() Option {
	return func(c *config) { c.checker.Engine.PruneInfeasible = false }
}

// WithKnownInputs declares secrets the attacker already knows (the §VIII-B
// prior-knowledge extension), by display name (e.g. "secrets[1]").
func WithKnownInputs(names ...string) Option {
	return func(c *config) {
		c.checker.KnownInputs = append(c.checker.KnownInputs, names...)
	}
}

// WithTrace enables Table-IV-style exploration snapshots. Every call then
// inlines instead of replaying a summary, so the snapshots include each
// callee's statements.
func WithTrace() Option {
	return func(c *config) { c.checker.Engine.TrackTrace = true }
}

// WithConservativeExterns treats results of unmodeled external functions as
// fresh secrets, so unmodeled code cannot launder taint (high-assurance
// mode; expect additional findings wherever extern results reach sinks).
func WithConservativeExterns() Option {
	return func(c *config) { c.checker.Engine.ConservativeExterns = true }
}

// WithObserver attaches a telemetry observer to the analysis: per-phase
// spans (parse, check/symexec, check/explicit, check/implicit,
// check/witness), engine and solver counters, and structured events. Use
// NewMetrics for the standard implementation; the observer must be safe for
// concurrent use when combined with WithParallelism (Metrics is).
func WithObserver(o Observer) Option {
	return func(c *config) { c.checker.Observer = o }
}

// WithDetectors replaces the detector selection outright (the -detectors
// CLI flag): only the named detectors run. It is the one way to choose
// what runs. The keywords "default" (explicit and implicit) and "all"
// expand inside the list: WithDetectors("explicit") ablates Alg. 1's
// implicit check, WithDetectors("default", "timing") adds the §VIII-A
// timing channel. Unknown names fail the analysis with an error naming the
// known set. Without this option the defaults apply, adjusted by the rule
// file's <detectors> block.
func WithDetectors(names ...string) Option {
	return func(c *config) { c.detectors = append(c.detectors, names...) }
}

// WithParallelism analyzes up to n ECALLs concurrently (each entry point
// gets an independent engine; the lowered module and its summary table are
// shared read-only); n ≤ 1 keeps sequential analysis.
func WithParallelism(n int) Option {
	return func(c *config) {
		if n > 1 {
			c.parallelism = n
		}
	}
}

// EnclaveReport aggregates the per-ECALL reports of one enclave module.
type EnclaveReport struct {
	// Reports holds one entry per analyzed public ECALL, in EDL order. An
	// entry point whose analysis failed (panic, hard error) keeps its slot
	// as an error report (Err non-empty) rather than aborting the module.
	Reports []*Report
}

// Secure reports whether every ECALL was *proved* free of violations: no
// findings anywhere, no analysis failures, and exhaustive coverage. A
// module with a truncated, cancelled or panicked entry point is not secure
// — its verdict is Inconclusive or Error, never Secure.
func (e *EnclaveReport) Secure() bool {
	for _, r := range e.Reports {
		if !r.Secure() {
			return false
		}
	}
	return true
}

// Verdict aggregates the per-function verdicts: findings anywhere dominate
// (a leak is a leak no matter what happened to sibling functions), then
// error, then inconclusive, then secure.
func (e *EnclaveReport) Verdict() Verdict {
	agg := VerdictSecure
	for _, r := range e.Reports {
		if v := r.Verdict(); v > agg {
			agg = v
		}
	}
	return agg
}

// Errors lists the entry points whose analysis failed, as "function: cause"
// strings. Empty when every entry point produced an analysis result.
func (e *EnclaveReport) Errors() []string {
	var out []string
	for _, r := range e.Reports {
		if r.Err != "" {
			out = append(out, r.Function+": "+r.Err)
		}
	}
	return out
}

// Degraded lists the entry points with partial coverage (budget, deadline
// or cancellation truncation).
func (e *EnclaveReport) Degraded() []*Report {
	var out []*Report
	for _, r := range e.Reports {
		if r.Coverage.Truncated {
			out = append(out, r)
		}
	}
	return out
}

// TotalFindings counts violations across all entry points.
func (e *EnclaveReport) TotalFindings() int {
	n := 0
	for _, r := range e.Reports {
		n += len(r.Findings)
	}
	return n
}

// Findings returns all violations across all entry points.
func (e *EnclaveReport) Findings() []Finding {
	var out []Finding
	for _, r := range e.Reports {
		out = append(out, r.Findings...)
	}
	return out
}

// Render concatenates the per-ECALL Box-1-style reports.
func (e *EnclaveReport) Render() string {
	var sb strings.Builder
	for i, r := range e.Reports {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(r.Render())
	}
	return sb.String()
}

// AnalyzeEnclave analyzes every public ECALL of an enclave module. The EDL
// attributes provide the default classification ([in]→secret, [out]→sink);
// an XML rule file supplied via WithConfigXML overrides it. It is
// AnalyzeEnclaveContext with a background context.
func AnalyzeEnclave(cSource, edlSource string, opts ...Option) (*EnclaveReport, error) {
	return AnalyzeEnclaveContext(context.Background(), cSource, edlSource, opts...)
}

// AnalyzeEnclaveContext is AnalyzeEnclave under a cancellation context.
//
// The per-function pipeline is fail-soft: ctx cancellation, deadline expiry
// (the ctx's or WithDeadline's) and budget exhaustion degrade the affected
// function's report instead of failing the call, and a panicking or
// hard-failing entry point is isolated — it yields an error entry naming
// the function while every other ECALL still analyzes. Only module-level
// problems (unparseable C or EDL, a bad rule file, no public ECALLs) return
// an error.
func AnalyzeEnclaveContext(ctx context.Context, cSource, edlSource string, opts ...Option) (*EnclaveReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := newConfig(opts)
	ob := obs.Or(cfg.checker.Observer)
	parseSpan := ob.StartSpan("parse")
	file, err := minic.Parse(cSource)
	if err != nil {
		parseSpan.End()
		return nil, fmt.Errorf("privacyscope: %w", err)
	}
	iface, err := edl.Parse(edlSource)
	if err != nil {
		parseSpan.End()
		return nil, fmt.Errorf("privacyscope: %w", err)
	}
	// Enclave code may call any EDL-declared untrusted function.
	builtins := append(append([]string(nil), minic.DefaultBuiltins...), iface.OCallNames()...)
	if err := minic.NewChecker(builtins).Check(file); err != nil {
		parseSpan.End()
		return nil, fmt.Errorf("privacyscope: %w", err)
	}
	parseSpan.End()
	ob.Add("parse.functions", int64(len(file.Functions)))
	rules, set, err := resolveDetectors(cfg)
	if err != nil {
		return nil, err
	}
	// Every EDL-declared untrusted function is an OCALL: its arguments
	// escape the enclave and are observable sinks.
	if names := iface.OCallNames(); len(names) > 0 {
		merged := make(map[string]bool, len(cfg.checker.Engine.OCallFuncs)+len(names))
		for k, v := range cfg.checker.Engine.OCallFuncs {
			merged[k] = v
		}
		for _, n := range names {
			merged[n] = true
		}
		cfg.checker.Engine.OCallFuncs = merged
	}
	// Lowered only now: the rule file and the EDL have settled the
	// engine's sink and declassify sets, which decide what a pure summary
	// may call.
	prog := lowerAndSummarize(ctx, cfg, set, file, ob)
	// Collect the public ECALLs to analyze.
	type job struct {
		name  string
		specs []ParamSpec
	}
	var jobs []job
	for _, sig := range iface.Trusted {
		if !sig.Public {
			continue
		}
		var rule *edl.FunctionRule
		if rules != nil {
			if r, ok := rules.Rule(sig.Name); ok {
				rule = r
			}
		}
		jobs = append(jobs, job{name: sig.Name, specs: edl.ParamSpecs(sig, rule)})
	}
	if len(jobs) == 0 {
		return nil, ErrNoECalls
	}

	out := &EnclaveReport{Reports: make([]*Report, len(jobs))}
	runJob := func(i int) {
		// Panic isolation: a crashing entry point (engine bug, pathological
		// input) must not take down the sibling analyses or the caller. Its
		// slot becomes an error report instead.
		defer func() {
			if p := recover(); p != nil {
				ob.Add("check.panics", 1)
				ob.Event("check.panic",
					obs.F("function", jobs[i].name),
					obs.F("panic", fmt.Sprint(p)))
				out.Reports[i] = core.ErrorReport(jobs[i].name,
					fmt.Sprintf("panic during analysis: %v", p))
			}
		}()
		rep, err := detect.Run(ctx, set, cfg.checker, prog, jobs[i].name, jobs[i].specs)
		if err != nil {
			ob.Add("check.errors", 1)
			out.Reports[i] = core.ErrorReport(jobs[i].name, err.Error())
			return
		}
		out.Reports[i] = rep
	}
	if cfg.parallelism <= 1 || len(jobs) == 1 {
		for i := range jobs {
			runJob(i)
		}
	} else {
		sem := make(chan struct{}, cfg.parallelism)
		var wg sync.WaitGroup
		for i := range jobs {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				runJob(i)
			}(i)
		}
		wg.Wait()
	}
	return out, nil
}

// AnalyzeFunction analyzes a single C function with an explicit parameter
// classification (no EDL required). It is AnalyzeFunctionContext with a
// background context.
func AnalyzeFunction(cSource, fn string, params []ParamSpec, opts ...Option) (*Report, error) {
	return AnalyzeFunctionContext(context.Background(), cSource, fn, params, opts...)
}

// AnalyzeFunctionContext is AnalyzeFunction under a cancellation context:
// cancellation, deadline expiry and budget exhaustion degrade the report
// (partial Coverage, Inconclusive verdict) instead of returning an error.
// Errors are reserved for module-level problems: unparseable source or an
// unknown entry function.
func AnalyzeFunctionContext(ctx context.Context, cSource, fn string, params []ParamSpec, opts ...Option) (*Report, error) {
	cfg := newConfig(opts)
	ob := obs.Or(cfg.checker.Observer)
	parseSpan := ob.StartSpan("parse")
	file, err := minic.Parse(cSource)
	parseSpan.End()
	if err != nil {
		return nil, fmt.Errorf("privacyscope: %w", err)
	}
	// The rule file applies in function mode too: extra decrypt/OCALL
	// registrations, detector toggles and lifecycle gates all configure the
	// engine the same way they do for a full enclave module.
	_, set, err := resolveDetectors(cfg)
	if err != nil {
		return nil, err
	}
	prog := lowerAndSummarize(ctx, cfg, set, file, ob)
	report, err := detect.Run(ctx, set, cfg.checker, prog, fn, params)
	if err != nil {
		return nil, fmt.Errorf("privacyscope: %w", err)
	}
	return report, nil
}

// resolveDetectors parses the rule file (if any) into the engine options,
// computes the effective detector selection from the defaults, the rule
// file's <detectors>/<lifecycle> entries and the WithDetectors override,
// then switches on the engine event streams the selection consumes.
func resolveDetectors(cfg *config) (*edl.Config, detect.Set, error) {
	var rules *edl.Config
	var enable, disable []string
	if len(cfg.configXML) > 0 {
		var err error
		if rules, err = edl.ParseConfig(cfg.configXML); err != nil {
			return nil, detect.Set{}, fmt.Errorf("privacyscope: %w", err)
		}
		cfg.checker.Engine = rules.EngineOptions(cfg.checker.Engine)
		known := func(n string) bool { _, ok := detect.Lookup(n); return ok }
		if err := rules.ValidateDetectors(known); err != nil {
			return nil, detect.Set{}, fmt.Errorf("privacyscope: %w", err)
		}
		enable, disable = rules.DetectorToggles()
		if inits := rules.InitFuncs(); inits != nil {
			cfg.checker.Engine.InitFuncs = inits
		}
	}
	set, err := detect.ResolveSet(enable, disable, cfg.detectors)
	if err != nil {
		return nil, detect.Set{}, fmt.Errorf("privacyscope: %w", err)
	}
	if set.NeedsPtrEscapes() {
		cfg.checker.Engine.RecordPtrEscapes = true
	}
	if set.NeedsSecretAccess() {
		cfg.checker.Engine.RecordSecretAccess = true
	}
	return rules, set, nil
}

// lowerAndSummarize lowers the checked module once for every entry point and
// builds its summary table, which every entry point's engine shares
// read-only. Pointer-escape, lifecycle and secret-access events and trace
// rows are per-statement state that summary application elides, so a
// detector selection needing them, or WithTrace, gets no table and every
// call inlines.
func lowerAndSummarize(ctx context.Context, cfg *config, set detect.Set, file *minic.File, ob obs.Observer) *ir.Program {
	span := ob.StartSpan("ir/lower")
	prog := ir.LowerMiniC(file)
	span.End()
	if !set.NeedsInline() && !cfg.checker.Engine.TrackTrace {
		cfg.checker.Engine.SummaryTable = symexec.BuildSummaryTable(ctx, prog, cfg.checker.Engine, ob)
	}
	return prog
}

// PRIMLAnalysis is the result of analyzing a PRIML program.
type PRIMLAnalysis = priml.Analysis

// AnalyzePRIML parses and analyzes a PRIML program with the PS-*
// instrumented semantics of §V, producing the Tables II/III-style trace and
// the findings of declassify_check.
func AnalyzePRIML(src string) (*PRIMLAnalysis, error) {
	prog, err := priml.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("privacyscope: %w", err)
	}
	res, err := priml.NewAnalyzer(priml.DefaultOptions()).Analyze(prog)
	if err != nil {
		return nil, fmt.Errorf("privacyscope: %w", err)
	}
	return res, nil
}
