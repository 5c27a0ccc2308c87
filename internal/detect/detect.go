// Package detect is the pluggable leak-detector registry. Every detector
// consumes the one shared symbolic-execution result (the IR walk plus taint
// facts the Alg. 1 kernel produced) and emits core.Findings with its own
// rule ID and severity class, so adding a leak class never re-runs the
// engine and never perturbs another detector's output.
//
// Run is the one analysis path: the facade, the CLIs, the batch driver, the
// daemon and the paper-evaluation bench all call it. The four built-in
// PrivacyScope checks implement the paper's Alg. 1 (explicit, implicit) and
// its §VIII-A extensions (timing, probabilistic); the committed report
// golden (make detect-smoke) pins their output over every shipped corpus.
// Four scenario packs cover enclave leak classes from the related work:
// ocall-pointer (STELLA's pointer leaks), errcode-channel (status-code
// covert channel), orderliness (Guardian's lifecycle property) and
// access-pattern (controlled-channel signals). The detector set is the one
// way to choose what runs.
package detect

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Detector is one leak-class analysis over the shared engine result.
type Detector interface {
	// Name is the stable configuration name ("explicit", "ocall-pointer").
	Name() string
	// Rule is the detector's rule ID stamped on its findings ("PS-EXPL").
	Rule() string
	// Severity is the detector's severity class ("high", "medium").
	Severity() string
	// DefaultOn reports whether the detector is in the default set.
	DefaultOn() bool
	// Detect runs the analysis, appending findings to rc.Report.
	Detect(rc *Context)
}

// registry holds all detectors in their canonical execution order. The
// built-in checks run first; the order fixes the shared dedupe table's
// outcome and the telemetry sequence.
var registry = []Detector{
	explicitDetector{},
	implicitDetector{},
	timingDetector{},
	probabilisticDetector{},
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
// DefaultSet or ResolveSet to build one.
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
	return s.NeedsPtrEscapes() || s.NeedsSecretAccess()
}

// DefaultSet returns the default selection: Alg. 1's explicit and implicit.
func DefaultSet() Set {
	s := Set{enabled: make(map[string]bool)}
	for _, d := range registry {
		if d.DefaultOn() {
			s.enabled[d.Name()] = true
		}
	}
	return s
}

// ResolveSet computes the effective detector selection:
//
//  1. the default set (explicit and implicit),
//  2. plus the XML rule-config <detectors> enable list, minus its disable
//     list,
//  3. unless cli (the -detectors flag) is non-empty, which replaces the
//     whole selection. The keywords "default" and "all" expand inside the
//     CLI list.
//
// Unknown names are errors naming the offender and the known set.
func ResolveSet(enable, disable, cli []string) (Set, error) {
	if len(cli) > 0 {
		s := Set{enabled: make(map[string]bool)}
		for _, name := range cli {
			name = strings.TrimSpace(name)
			switch name {
			case "":
				continue
			case "default":
				maps.Copy(s.enabled, DefaultSet().enabled)
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
	for _, name := range slices.Concat(enable, disable) {
		if _, ok := Lookup(name); !ok {
			return Set{}, unknownErr(name)
		}
	}
	s := DefaultSet()
	for _, name := range enable {
		s.enabled[name] = true
	}
	for _, name := range disable {
		delete(s.enabled, name)
	}
	return s, nil
}

func unknownErr(name string) error {
	known := Names()
	sort.Strings(known)
	return fmt.Errorf("detect: unknown detector %q (known: %s)", name, strings.Join(known, ", "))
}
