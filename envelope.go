package privacyscope

import "time"

// This file defines the machine-readable result envelope shared by the
// `privacyscope -json` CLI and the privacyscoped HTTP daemon. Both surfaces
// emit the identical shape so one decoder serves both, and the daemon's
// result cache can store the envelope verbatim.

// EnvelopeFinding is one violation in the envelope. Rule and Severity are
// the emitting detector's stamps (docs/DETECTORS.md), e.g. PS-OCPTR/high.
type EnvelopeFinding struct {
	Function string `json:"function"`
	Kind     string `json:"kind"`
	Sink     string `json:"sink"`
	Where    string `json:"where"`
	Secret   string `json:"secret"`
	Message  string `json:"message"`
	Rule     string `json:"rule,omitempty"`
	Severity string `json:"severity,omitempty"`
	Verified bool   `json:"witnessVerified"`
}

// EnvelopeFunction is the per-entry-point slice of the envelope: verdict,
// coverage, and the failure cause when the function's analysis died.
type EnvelopeFunction struct {
	Function string   `json:"function"`
	Verdict  string   `json:"verdict"`
	Error    string   `json:"error,omitempty"`
	Coverage Coverage `json:"coverage"`
}

// Envelope is the machine-readable module result: the findings plus
// run-level facts and, when telemetry is on, the full metrics snapshot.
// Secure means *proved* secure: a degraded (truncated/errored) run is not
// secure even with zero findings — check Verdict and the per-function
// Coverage.
type Envelope struct {
	Findings []EnvelopeFinding `json:"findings"`
	Secure   bool              `json:"secure"`
	Verdict  string            `json:"verdict"`
	// Engine is the build's engine fingerprint (see Fingerprint): the
	// same value the daemon folds into cache keys, so every envelope
	// names the engine semantics that produced it.
	Engine     string             `json:"engine"`
	Functions  []EnvelopeFunction `json:"functions"`
	DurationMs float64            `json:"durationMs"`
	// Paths counts the paths completed after merging: a faint join (a
	// secret branch whose arms only write never-observed locals) runs both
	// arms and then continues as one path. States counts the exploded
	// states visited, both arms of every faint join included.
	Paths   int              `json:"paths"`
	States  int              `json:"states"`
	Metrics *MetricsSnapshot `json:"metrics,omitempty"`
	// TraceID identifies the analysis execution that produced this
	// envelope (the daemon echoes it in the traceparent response header
	// and serves the recorded trace at /debug/traces/<id>).
	TraceID string `json:"traceId,omitempty"`
	// Trace is the recorded span tree, embedded when the caller traced
	// the run (privacyscope -trace-out attaches it; the daemon serves it
	// out-of-band via /debug/traces instead of inflating every response).
	Trace *TraceSnapshot `json:"trace,omitempty"`
}

// NewEnvelope flattens an EnclaveReport into the envelope. The metrics
// snapshot is attached when metrics is non-nil.
func NewEnvelope(rep *EnclaveReport, elapsed time.Duration, metrics *Metrics) Envelope {
	env := Envelope{
		Findings:   []EnvelopeFinding{},
		Secure:     rep.Secure(),
		Verdict:    rep.Verdict().String(),
		Engine:     Fingerprint(),
		DurationMs: float64(elapsed.Nanoseconds()) / 1e6,
	}
	for _, r := range rep.Reports {
		env.Functions = append(env.Functions, EnvelopeFunction{
			Function: r.Function,
			Verdict:  r.Verdict().String(),
			Error:    r.Err,
			Coverage: r.Coverage,
		})
		env.Paths += r.Paths
		env.States += r.States
		for _, f := range r.Findings {
			ef := EnvelopeFinding{
				Function: r.Function,
				Kind:     f.Kind.String(),
				Sink:     f.Sink.String(),
				Where:    f.Where,
				Secret:   f.Secret,
				Message:  f.Message,
				Rule:     f.Rule,
				Severity: f.Severity,
			}
			if f.Witness != nil {
				ef.Verified = f.Witness.Verified
			}
			env.Findings = append(env.Findings, ef)
		}
	}
	if metrics != nil {
		snap := metrics.Snapshot()
		env.Metrics = &snap
	}
	return env
}

// Cancelled reports whether any entry point was cut by context
// cancellation (as opposed to its own budget or deadline) — the daemon
// refuses to cache such envelopes, since a re-submission without the
// cancellation would explore further.
func (e Envelope) Cancelled() bool {
	for _, f := range e.Functions {
		if f.Coverage.Reason == TruncCancelled {
			return true
		}
	}
	return false
}
