package core

import (
	"time"

	"privacyscope/internal/obs"
	"privacyscope/internal/symexec"
)

// Options configures one analysis run (detect.Run): the engine, witness
// replay, prior knowledge and the telemetry sink (detect.Set picks what runs).
type Options struct {
	// Engine configures the underlying symbolic execution engine.
	Engine symexec.Options
	// ReplayWitness constructs and concretely replays a two-run witness
	// for every explicit finding with an exact affine inversion.
	ReplayWitness bool
	// KnownInputs lists secret display names the attacker is assumed to
	// know (the §VIII-B prior-knowledge extension). A sink masked only
	// by known inputs is reported as a prior-knowledge leak.
	KnownInputs []string
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
	}
}
