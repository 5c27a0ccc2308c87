// Package core implements the PrivacyScope nonreversibility checker — the
// paper's primary contribution. It drives the symbolic execution engine
// over an enclave entry point and applies the declassify_check policy of
// Alg. 1 to everything the untrusted host can observe: [out]-parameter
// contents, return values, and OCALL arguments.
//
//   - An observable value tainted by exactly one secret source is an
//     explicit nonreversibility violation: the attacker can reverse the
//     computation and recover that secret (Example 1 / Table II).
//   - When the path condition π is tainted by exactly one secret and two
//     sibling paths reveal different values at the same sink, the branch
//     outcome — and hence the secret — is observable: an implicit violation
//     (Example 2 / Table III), detected through the hashmap hm.
//
// Each explicit finding carries, when the leaked value is affine in the
// secret, a concrete inversion formula and a two-run witness that the
// checker can replay on the concrete interpreter.
package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"privacyscope/internal/minic"
	"privacyscope/internal/solver"
	"privacyscope/internal/sym"
	"privacyscope/internal/symexec"
	"privacyscope/internal/taint"
)

// LeakKind distinguishes explicit and implicit violations.
type LeakKind int

// Leak kinds.
const (
	ExplicitLeak LeakKind = iota + 1
	ImplicitLeak
	// TimingLeak is the §VIII-A extension: the abstract execution time
	// (statement count) of the path depends on a single secret. Reported
	// only when the timing detector is selected.
	TimingLeak
	// ProbabilisticLeak is the §VIII-A probabilistic channel: an
	// observable value depends on a single secret masked only by
	// in-enclave entropy, so its *distribution* reveals the secret even
	// though no single run does. Reported only when the probabilistic
	// detector is selected: the paper's deterministic threat model deems
	// such values secure.
	ProbabilisticLeak
	// OcallPtrLeak is the ocall-pointer scenario pack (STELLA's
	// pointer-leak pattern): secret-tainted data written through an OCALL
	// pointer argument into untrusted memory, which the per-scalar
	// explicit policy never sees.
	OcallPtrLeak
	// ErrCodeLeak is the errcode-channel scenario pack: a secret-dependent
	// mix reaching an ecall return code or OCALL status sink — the
	// sgx_status_t covert channel. Complements the explicit policy, which
	// only fires on single-secret (invertible) values.
	ErrCodeLeak
	// OrderlinessLeak is the orderliness scenario pack (Guardian's
	// lifecycle property): secret data escapes through an OCALL before the
	// enclave's init/declassify gate ran on that path.
	OrderlinessLeak
	// AccessPatternLeak is the access-pattern scenario pack: a
	// secret-dependent branch or a secret-indexed memory access — the
	// controlled-channel signal visible in page-granular access traces.
	AccessPatternLeak
)

// String names the kind.
func (k LeakKind) String() string {
	switch k {
	case ExplicitLeak:
		return "explicit"
	case ImplicitLeak:
		return "implicit"
	case TimingLeak:
		return "timing-channel"
	case ProbabilisticLeak:
		return "probabilistic-channel"
	case OcallPtrLeak:
		return "ocall-pointer"
	case ErrCodeLeak:
		return "errcode-channel"
	case OrderlinessLeak:
		return "orderliness"
	case AccessPatternLeak:
		return "access-pattern"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// SinkKind classifies where the observation happens.
type SinkKind int

// Sink kinds.
const (
	SinkOutParam SinkKind = iota + 1
	SinkReturn
	SinkOCall
	// SinkBranch is a control-flow observation point: the branch outcome
	// itself is visible through the access trace (access-pattern pack).
	SinkBranch
	// SinkMemory is a data-dependent memory access whose address is
	// visible at page granularity (access-pattern pack).
	SinkMemory
)

// String names the sink kind.
func (s SinkKind) String() string {
	switch s {
	case SinkOutParam:
		return "[out] parameter"
	case SinkReturn:
		return "return value"
	case SinkOCall:
		return "OCALL argument"
	case SinkBranch:
		return "branch"
	case SinkMemory:
		return "memory access"
	}
	return fmt.Sprintf("sink(%d)", int(s))
}

// Finding is one detected nonreversibility violation.
type Finding struct {
	Kind LeakKind
	Sink SinkKind
	// Rule is the emitting detector's rule ID ("PS-EXPL", "PS-OCPTR", …;
	// see internal/detect).
	Rule string
	// Severity is the emitting detector's severity class ("high",
	// "medium").
	Severity string
	// Where names the sink in source notation: "output[0]", "return",
	// "printf@3:5".
	Where string
	Pos   minic.Pos
	// Secret is the leaked secret's display name (e.g. "secrets[0]").
	Secret string
	// Tag is the secret's taint tag.
	Tag taint.Tag
	// Value is the revealed symbolic value (explicit leaks).
	Value sym.Expr
	// Values holds the differing revealed values of two sibling paths
	// (implicit leaks); Values[1] is nil for presence-only leaks.
	Values [2]sym.Expr
	// Costs holds the differing abstract path costs (timing leaks).
	Costs [2]int
	// Path is a path condition under which the leak manifests.
	Path *solver.PathCondition
	// Inversion is the affine recovery formula, when one exists.
	Inversion *sym.Inversion
	// PriorKnowledge is true when the leak only exists given the
	// attacker's assumed knowledge of other inputs (§VIII-B).
	PriorKnowledge bool
	// Witness is the replayed two-run confirmation, when constructed.
	Witness *Witness
	// Message is the human-readable description.
	Message string
}

// Witness is a concrete two-run demonstration of an explicit leak: the two
// input assignments differ only in the leaked secret, the observed sink
// values differ, and applying the inversion to each observation recovers
// the corresponding secret value.
type Witness struct {
	// InputsA and InputsB assign concrete values by secret display name.
	InputsA, InputsB map[string]int32
	// ObservedA and ObservedB are the sink values of the two runs.
	ObservedA, ObservedB float64
	// RecoveredA and RecoveredB are the inversion outputs.
	RecoveredA, RecoveredB float64
	// Verified is true when the replay confirmed the leak end-to-end.
	Verified bool
	// Note explains a skipped or failed replay.
	Note string
}

// Verdict is the four-valued outcome of checking one entry point. The
// crucial distinction is Inconclusive vs Secure: a truncated exploration
// that found nothing must never be reported as "no leaks found".
type Verdict int

// Verdicts, ordered by severity for aggregation.
const (
	// VerdictSecure: the exploration was exhaustive and found no
	// violation.
	VerdictSecure Verdict = iota + 1
	// VerdictInconclusive: no violation found, but coverage was partial
	// (budget, deadline or cancellation cut the exploration).
	VerdictInconclusive
	// VerdictError: the analysis itself failed (panic, unknown entry
	// point, semantic error); Report.Err carries the description.
	VerdictError
	// VerdictFindings: at least one violation was detected. Findings on
	// the explored paths are real regardless of truncation.
	VerdictFindings
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictSecure:
		return "secure"
	case VerdictInconclusive:
		return "inconclusive"
	case VerdictError:
		return "error"
	case VerdictFindings:
		return "findings"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Report is the outcome of checking one enclave entry point.
type Report struct {
	Function string
	Findings []Finding
	// Paths, States and Regions are exploration metrics. Paths counts the
	// paths completed after merging (a faint join continues as one path);
	// States counts every exploded state visited, both arms of a faint join
	// included.
	Paths   int
	States  int
	Regions int
	// Secrets is the number of distinct secret sources observed.
	Secrets int
	// Coverage records how much of the path space was explored; when
	// Coverage.Truncated the verdict downgrades to Inconclusive unless
	// findings were detected anyway.
	Coverage symexec.Coverage
	// Err is the analysis failure description for error entries produced
	// by the fail-soft facade (a panicking or failing entry point keeps
	// its slot in the enclave report instead of aborting the module).
	Err string
	// Duration is the wall-clock analysis time (Table V's metric).
	Duration time.Duration
	Warnings []string
}

// ErrorReport builds the per-function placeholder for an entry point whose
// analysis failed outright (panic or hard error). It keeps the function's
// slot in the enclave report so sibling entry points still get analyzed.
func ErrorReport(fn, errMsg string) *Report {
	return &Report{Function: fn, Err: errMsg}
}

// Verdict classifies the report: findings beat everything (a leak found on
// a truncated run is still a leak), then error, then inconclusive, then
// secure.
func (r *Report) Verdict() Verdict {
	switch {
	case len(r.Findings) > 0:
		return VerdictFindings
	case r.Err != "":
		return VerdictError
	case r.Coverage.Truncated:
		return VerdictInconclusive
	default:
		return VerdictSecure
	}
}

// Secure reports whether the entry point was *proved* free of violations:
// no findings, no analysis failure, and exhaustive coverage. A truncated
// or failed run is never secure.
func (r *Report) Secure() bool { return r.Verdict() == VerdictSecure }

// Explicit returns the explicit findings.
func (r *Report) Explicit() []Finding { return r.filter(ExplicitLeak) }

// Implicit returns the implicit findings.
func (r *Report) Implicit() []Finding { return r.filter(ImplicitLeak) }

func (r *Report) filter(k LeakKind) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Kind == k {
			out = append(out, f)
		}
	}
	return out
}

// Render pretty-prints the report in the style of the paper's Box 1.
func (r *Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== PrivacyScope report: %s ===\n", r.Function)
	if r.Err != "" {
		fmt.Fprintf(&sb, "ANALYSIS ERROR: %s\n", r.Err)
		fmt.Fprintf(&sb, "verdict: %s — this entry point was not analyzed; sibling entry points were\n", r.Verdict())
		return sb.String()
	}
	fmt.Fprintf(&sb, "paths explored: %d, states: %d, regions: %d, secrets: %d, time: %s\n",
		r.Paths, r.States, r.Regions, r.Secrets, r.Duration.Round(time.Microsecond))
	if r.Coverage.Truncated {
		fmt.Fprintf(&sb, "coverage: PARTIAL — exploration truncated (%s) after %d completed paths, %d steps\n",
			r.Coverage.Reason, r.Coverage.CompletedPaths, r.Coverage.StepsUsed)
	}
	switch r.Verdict() {
	case VerdictSecure:
		sb.WriteString("no nonreversibility violations detected\n")
	case VerdictInconclusive:
		sb.WriteString("verdict: INCONCLUSIVE — no violations on the explored paths, but coverage\n")
		sb.WriteString("is partial; unexplored paths may still leak\n")
	}
	for i, f := range r.Findings {
		fmt.Fprintf(&sb, "\nWARNING %d: %s information leakage via %s\n", i+1, f.Kind, f.Sink)
		fmt.Fprintf(&sb, "  sink:   %s (line %d)\n", f.Where, f.Pos.Line)
		fmt.Fprintf(&sb, "  secret: %s\n", f.Secret)
		switch f.Kind {
		case ExplicitLeak:
			fmt.Fprintf(&sb, "  value:  %s = %s\n", f.Where, RenderValue(f.Value))
			if f.Inversion != nil && f.Inversion.Exact {
				fmt.Fprintf(&sb, "  recovery: %s\n", f.Inversion.Formula())
			}
		case ImplicitLeak:
			if f.Values[1] != nil {
				fmt.Fprintf(&sb, "  branches on %s reveal %s vs %s\n",
					f.Secret, RenderValue(f.Values[0]), RenderValue(f.Values[1]))
			} else {
				fmt.Fprintf(&sb, "  output at %s happens only on paths where π depends on %s\n",
					f.Where, f.Secret)
			}
			if f.Path != nil {
				fmt.Fprintf(&sb, "  path condition: %s\n", f.Path)
			}
		case TimingLeak:
			fmt.Fprintf(&sb, "  paths branching on %s execute %d vs %d statements\n",
				f.Secret, f.Costs[0], f.Costs[1])
			if f.Path != nil {
				fmt.Fprintf(&sb, "  path condition: %s\n", f.Path)
			}
		case ProbabilisticLeak:
			fmt.Fprintf(&sb, "  value:  %s = %s\n", f.Where, RenderValue(f.Value))
			sb.WriteString("  the masking randomness is generated in-enclave: the output\n")
			sb.WriteString("  distribution over repeated calls reveals the secret\n")
		case OcallPtrLeak:
			fmt.Fprintf(&sb, "  value:  %s = %s\n", f.Where, RenderValue(f.Value))
			sb.WriteString("  the value escapes through an OCALL pointer argument into\n")
			sb.WriteString("  untrusted memory — outside the scalar-argument policy's view\n")
		case ErrCodeLeak:
			if f.Values[1] != nil {
				fmt.Fprintf(&sb, "  status codes %s vs %s depend on the secret mix\n",
					RenderValue(f.Values[0]), RenderValue(f.Values[1]))
			} else if f.Value != nil {
				fmt.Fprintf(&sb, "  value:  %s = %s\n", f.Where, RenderValue(f.Value))
			}
			sb.WriteString("  the status/return code is a covert channel: repeated calls\n")
			sb.WriteString("  narrow the secret mix one comparison at a time\n")
		case OrderlinessLeak:
			if f.Value != nil {
				fmt.Fprintf(&sb, "  value:  %s = %s\n", f.Where, RenderValue(f.Value))
			}
			sb.WriteString("  entry order bypasses the lifecycle gate: the OCALL runs before\n")
			sb.WriteString("  the init/declassify call on this path\n")
		case AccessPatternLeak:
			if f.Value != nil {
				if f.Sink == SinkBranch {
					fmt.Fprintf(&sb, "  condition: %s\n", RenderValue(f.Value))
				} else {
					fmt.Fprintf(&sb, "  index:  %s\n", RenderValue(f.Value))
				}
			}
			sb.WriteString("  the access pattern is visible at page granularity to the host\n")
			sb.WriteString("  (controlled-channel attack surface)\n")
		}
		// The rule line renders only for the scenario-pack kinds: the three
		// legacy kinds predate rule IDs and their rendering is pinned
		// byte-identical to the pre-refactor checker by the differential
		// gate (make detect-smoke).
		switch f.Kind {
		case OcallPtrLeak, ErrCodeLeak, OrderlinessLeak, AccessPatternLeak:
			if f.Rule != "" {
				fmt.Fprintf(&sb, "  rule:   %s (severity %s)\n", f.Rule, f.Severity)
			}
		}
		if f.PriorKnowledge {
			sb.WriteString("  note: leak assumes attacker prior knowledge of other inputs (§VIII-B)\n")
		}
		if f.Witness != nil && f.Witness.Verified {
			if f.Kind == ExplicitLeak {
				fmt.Fprintf(&sb, "  witness: inputs %v vs %v → observed %g vs %g, recovered %g vs %g\n",
					f.Witness.InputsA, f.Witness.InputsB,
					f.Witness.ObservedA, f.Witness.ObservedB,
					f.Witness.RecoveredA, f.Witness.RecoveredB)
			} else {
				fmt.Fprintf(&sb, "  witness: inputs %v vs %v → observed %g vs %g\n",
					f.Witness.InputsA, f.Witness.InputsB,
					f.Witness.ObservedA, f.Witness.ObservedB)
			}
		}
	}
	for _, w := range r.Warnings {
		fmt.Fprintf(&sb, "\nnote: %s\n", w)
	}
	return sb.String()
}

// maxRenderedValue bounds how much of a symbolic value the report prints;
// aggregate expressions (k-means centroids, regression slopes) can be
// arbitrarily large.
const maxRenderedValue = 160

// RenderValue renders a symbolic value as reports and detector messages
// show it. The cap bounds the work as well as the text: a value whose
// String is exponential in its DAG depth renders in O(maxRenderedValue).
func RenderValue(e sym.Expr) string { return sym.Render(e, maxRenderedValue) }

// SortFindings orders findings deterministically: by sink location, then
// leak kind, then detector rule ID, then secret. The rule key keeps
// multi-detector reports stable across -jobs; it is vacuous for same-kind
// findings (one rule per kind).
func SortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Where != fs[j].Where {
			return fs[i].Where < fs[j].Where
		}
		if fs[i].Kind != fs[j].Kind {
			return fs[i].Kind < fs[j].Kind
		}
		if fs[i].Rule != fs[j].Rule {
			return fs[i].Rule < fs[j].Rule
		}
		return fs[i].Secret < fs[j].Secret
	})
}
