// Package detect is the pluggable leak-detector registry. Every detector
// consumes the one shared symbolic-execution result (the IR walk plus taint
// facts the Alg. 1 kernel produced) and emits core.Findings with its own
// rule ID and severity class, so adding a leak class never re-runs the
// engine and never perturbs another detector's output.
//
// Run is the one analysis path: the facade, the CLIs, the batch driver, the
// daemon and the paper-evaluation bench all call it. The three built-in
// PrivacyScope checks (explicit, implicit, timing) implement the paper's
// Alg. 1; the committed report golden (make detect-smoke) pins their
// output over every shipped corpus. Four scenario packs cover enclave leak
// classes from the related work: ocall-pointer (STELLA's pointer leaks),
// errcode-channel (status-code covert channel), orderliness (Guardian's
// lifecycle property) and access-pattern (controlled-channel signals).
package detect

import (
	"fmt"
	"sort"
	"strings"

	"privacyscope/internal/core"
)

// Detector is one leak-class analysis over the shared engine result.
type Detector interface {
	// Name is the stable configuration name ("explicit", "ocall-pointer").
	Name() string
	// Rule is the detector's rule ID stamped on its findings ("PS-EXPL").
	Rule() string
	// Severity is the detector's severity class ("high", "medium").
	Severity() string
	// DefaultOn reports whether the detector is enabled by default under
	// the given options (the ImplicitCheck/TimingCheck switches map here).
	DefaultOn(opts core.Options) bool
	// Detect runs the analysis, appending findings to rc.Report.
	Detect(rc *Context)
}

// registry holds all detectors in their canonical execution order. The
// built-in trio runs first; the order fixes the shared dedupe table's
// outcome and the telemetry sequence.
var registry = []Detector{
	explicitDetector{},
	implicitDetector{},
	timingDetector{},
	ocallPtrDetector{},
	errCodeDetector{},
	orderlinessDetector{},
	accessPatternDetector{},
}

// Names returns every registered detector name in execution order.
func Names() []string {
	out := make([]string, len(registry))
	for i, d := range registry {
		out[i] = d.Name()
	}
	return out
}

// Lookup resolves a configuration name to its detector.
func Lookup(name string) (Detector, bool) {
	for _, d := range registry {
		if d.Name() == name {
			return d, true
		}
	}
	return nil, false
}

// Set is a resolved selection of detectors. The zero value is empty; use
// ResolveSet to build one.
type Set struct {
	enabled map[string]bool
}

// Has reports whether the named detector is selected.
func (s Set) Has(name string) bool { return s.enabled[name] }

// Detectors returns the selected detectors in canonical execution order.
func (s Set) Detectors() []Detector {
	var out []Detector
	for _, d := range registry {
		if s.enabled[d.Name()] {
			out = append(out, d)
		}
	}
	return out
}

// Names returns the selected detector names in canonical execution order.
func (s Set) Names() []string {
	var out []string
	for _, d := range s.Detectors() {
		out = append(out, d.Name())
	}
	return out
}

// Key renders the set as a canonical comma-joined string for cache keys.
func (s Set) Key() string { return strings.Join(s.Names(), ",") }

// NeedsPtrEscapes reports whether any selected detector consumes OCALL
// pointer-escape events (symexec.Options.RecordPtrEscapes).
func (s Set) NeedsPtrEscapes() bool {
	return s.Has("ocall-pointer") || s.Has("orderliness")
}

// NeedsSecretAccess reports whether any selected detector consumes
// secret-branch / secret-index events (symexec.Options.RecordSecretAccess).
func (s Set) NeedsSecretAccess() bool { return s.Has("access-pattern") }

// NeedsInline reports whether the selection depends on per-path engine
// events that function summaries do not replay, forcing inline mode.
func (s Set) NeedsInline() bool {
	return s.NeedsPtrEscapes() || s.NeedsSecretAccess() || s.Has("orderliness")
}

// ResolveSet computes the effective detector selection:
//
//  1. the defaults implied by the checker options (explicit always;
//     implicit/timing per their ablation switches; scenario packs off),
//  2. plus the XML rule-config <detectors> enable list, minus its disable
//     list,
//  3. unless cli (the -detectors flag) is non-empty, which replaces the
//     whole selection. The keywords "default" and "all" expand inside the
//     CLI list.
//
// Unknown names are errors naming the offender and the known set.
func ResolveSet(opts core.Options, enable, disable, cli []string) (Set, error) {
	s := Set{enabled: make(map[string]bool)}
	for _, d := range registry {
		if d.DefaultOn(opts) {
			s.enabled[d.Name()] = true
		}
	}
	if len(cli) > 0 {
		s.enabled = make(map[string]bool)
		for _, name := range cli {
			name = strings.TrimSpace(name)
			switch name {
			case "":
				continue
			case "default":
				for _, d := range registry {
					if d.DefaultOn(opts) {
						s.enabled[d.Name()] = true
					}
				}
			case "all":
				for _, d := range registry {
					s.enabled[d.Name()] = true
				}
			default:
				if _, ok := Lookup(name); !ok {
					return Set{}, unknownErr(name)
				}
				s.enabled[name] = true
			}
		}
		if len(s.enabled) == 0 {
			return Set{}, fmt.Errorf("detect: -detectors selected no detectors")
		}
		return s, nil
	}
	for _, name := range enable {
		if _, ok := Lookup(name); !ok {
			return Set{}, unknownErr(name)
		}
		s.enabled[name] = true
	}
	for _, name := range disable {
		if _, ok := Lookup(name); !ok {
			return Set{}, unknownErr(name)
		}
		delete(s.enabled, name)
	}
	return s, nil
}

func unknownErr(name string) error {
	known := Names()
	sort.Strings(known)
	return fmt.Errorf("detect: unknown detector %q (known: %s)", name, strings.Join(known, ", "))
}
