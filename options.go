package privacyscope

import (
	"encoding/json"
	"slices"
	"strings"
)

// AnalysisOptions is the declarative, JSON-marshalable form of the facade's
// functional options. The privacyscoped HTTP API accepts it as the request
// "options" object, the batch driver (internal/batch) carries it per
// project run, and both fold its canonical JSON into their cache keys — so
// one struct is the single source of truth for "what can change an
// analysis result besides the sources".
//
// Every field MUST participate in JSON marshaling (no `json:"-"`): cache
// keys hash KeyJSON, and a field that does not serialize would let two
// different analyses share a cache entry. The cache-key soundness property
// test (internal/batch) enumerates the fields by reflection and fails when
// a newly added field does not change the key.
type AnalysisOptions struct {
	LoopBound           int      `json:"loopBound,omitempty"`
	MaxPaths            int      `json:"maxPaths,omitempty"`
	MaxSteps            int      `json:"maxSteps,omitempty"`
	DeadlineMs          int      `json:"deadlineMs,omitempty"`
	NoWitness           bool     `json:"noWitness,omitempty"`
	ConservativeExterns bool     `json:"conservativeExterns,omitempty"`
	KnownInputs         []string `json:"knownInputs,omitempty"`
	// Detectors replaces the detector selection (the -detectors flag);
	// empty keeps the defaults. It is the one way to choose what runs.
	// Participates in every cache key like any other field: two runs with
	// different detector sets produce different reports and must never
	// share an entry.
	Detectors []string `json:"detectors,omitempty"`
}

// FacadeOptions converts the declarative knobs into the functional options
// AnalyzeEnclave takes. DeadlineMs is excluded on purpose: a wall-clock
// budget is context plumbing, and both the daemon and the batch driver
// apply it to the analysis context (so expiry degrades the whole module
// fail-soft) rather than per entry point.
func (o AnalysisOptions) FacadeOptions() []Option {
	var opts []Option
	if o.LoopBound > 0 {
		opts = append(opts, WithLoopBound(o.LoopBound))
	}
	if o.MaxPaths > 0 {
		opts = append(opts, WithMaxPaths(o.MaxPaths))
	}
	if o.MaxSteps > 0 {
		opts = append(opts, WithMaxSteps(o.MaxSteps))
	}
	if o.NoWitness {
		opts = append(opts, WithoutWitnessReplay())
	}
	if o.ConservativeExterns {
		opts = append(opts, WithConservativeExterns())
	}
	if len(o.KnownInputs) > 0 {
		opts = append(opts, WithKnownInputs(o.KnownInputs...))
	}
	if len(o.Detectors) > 0 {
		opts = append(opts, WithDetectors(o.Detectors...))
	}
	return opts
}

// UnmarshalJSON folds the detector switches older clients send into
// Detectors. Let base be explicit, plus implicit unless noImplicit, plus
// timing and probabilistic when set: an empty list becomes base, and each
// "default" in a list becomes base. An old daemon request or batch config
// thus keys and analyzes like its detector-list form.
func (o *AnalysisOptions) UnmarshalJSON(data []byte) error {
	type plain AnalysisOptions
	var in struct {
		plain
		NoImplicit    bool `json:"noImplicit"`
		Timing        bool `json:"timing"`
		Probabilistic bool `json:"probabilistic"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*o = AnalysisOptions(in.plain)
	if !in.NoImplicit && !in.Timing && !in.Probabilistic {
		return nil
	}
	base := slices.DeleteFunc([]string{"explicit", "implicit", "timing", "probabilistic"}, func(name string) bool {
		return name == "implicit" && in.NoImplicit || name == "timing" && !in.Timing || name == "probabilistic" && !in.Probabilistic
	})
	names := o.Detectors
	if len(names) == 0 {
		names = []string{"default"}
	}
	o.Detectors = nil
	for _, name := range names {
		if strings.TrimSpace(name) == "default" {
			o.Detectors = append(o.Detectors, base...)
		} else {
			o.Detectors = append(o.Detectors, name)
		}
	}
	return nil
}

// KeyJSON is the canonical serialization cache keys hash. It is plain
// json.Marshal today; having a named chokepoint means a future field with
// special equality semantics changes one place, not every keyer.
func (o AnalysisOptions) KeyJSON() string {
	b, _ := json.Marshal(o)
	return string(b)
}

// ParseVerdict inverts Verdict.String. The second return is false for
// strings no verdict renders to (the Verdict is then VerdictError, the
// conservative reading of an unintelligible result).
func ParseVerdict(s string) (Verdict, bool) {
	for _, v := range []Verdict{VerdictSecure, VerdictInconclusive, VerdictError, VerdictFindings} {
		if v.String() == s {
			return v, true
		}
	}
	return VerdictError, false
}
