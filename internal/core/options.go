package core

import (
	"time"

	"privacyscope/internal/obs"
	"privacyscope/internal/symexec"
)

// Options configures one analysis run (detect.Run): the engine, the
// detector switches and the telemetry sink.
type Options struct {
	// Engine configures the underlying symbolic execution engine.
	Engine symexec.Options
	// ReplayWitness constructs and concretely replays a two-run witness
	// for every explicit finding with an exact affine inversion.
	ReplayWitness bool
	// ImplicitCheck enables the hashmap-hm implicit detection (ablation
	// switch; on in DefaultOptions).
	ImplicitCheck bool
	// KnownInputs lists secret display names the attacker is assumed to
	// know (the §VIII-B prior-knowledge extension). A sink masked only
	// by known inputs is reported as a prior-knowledge leak.
	KnownInputs []string
	// TimingCheck enables the §VIII-A extension: compare the abstract
	// execution cost of paths that differ only in one secret's branch
	// constraints. Off by default — timing is explicitly out of the
	// paper's core scope.
	TimingCheck bool
	// ProbabilisticCheck enables the §VIII-A probabilistic channel: an
	// observable single-secret value masked only by in-enclave entropy
	// is reported (its distribution reveals the secret). Off by default
	// — the paper's threat model covers deterministic leakage only, and
	// entropy genuinely blocks deterministic recovery.
	ProbabilisticCheck bool
	// Deadline bounds each detect.Run call's wall-clock time. When it
	// expires mid-exploration the run returns the paths completed so
	// far with an Inconclusive verdict instead of an error. Zero means no
	// per-function deadline (the caller's context still applies).
	Deadline time.Duration
	// Observer receives run telemetry: per-phase spans
	// (check/symexec, check/explicit, check/implicit, check/witness),
	// findings-by-kind counters, and — threaded into Engine and the
	// solver unless Engine.Obs is already set — the engine-level
	// counters. Nil means the no-op observer.
	Observer obs.Observer
}

// DefaultOptions returns the standard analysis configuration.
func DefaultOptions() Options {
	return Options{
		Engine:        symexec.DefaultOptions(),
		ReplayWitness: true,
		ImplicitCheck: true,
	}
}
