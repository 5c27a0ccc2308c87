package priml

import (
	"context"
	"fmt"
	"sort"

	"privacyscope/internal/core"
	"privacyscope/internal/solver"
	"privacyscope/internal/sym"
	"privacyscope/internal/symexec"
	"privacyscope/internal/taint"
)

// This file implements the PrivacyScope program analysis for PRIML (§V-B) as
// a thin adapter over the shared analysis stack: the program is lowered to
// the analysis IR (lower.go), explored by the shared symbolic engine
// (internal/symexec), and checked by the Alg. 1 kernel (internal/core). The
// PS-* instrumented semantics fall out of the composition — values are pairs
// <v, τ> because the engine's expressions carry their taint, Δ/τΔ/π are the
// engine's store and path condition, and declassify_check fires from the
// declassify intrinsic. The adapter owns only the PRIML-facing surface:
// lowering, secret-symbol minting per get_secret occurrence, rendering the
// Tables II/III simulation rows from NoteOp hooks, and phrasing findings.

// LeakKind distinguishes explicit and implicit nonreversibility violations.
type LeakKind int

// Leak kinds.
const (
	ExplicitLeak LeakKind = iota + 1
	ImplicitLeak
	// CustomLeak is reported by a user-supplied Options.CustomPolicy.
	CustomLeak
)

// String names the leak kind.
func (k LeakKind) String() string {
	switch k {
	case ExplicitLeak:
		return "explicit"
	case ImplicitLeak:
		return "implicit"
	case CustomLeak:
		return "custom-policy"
	}
	return fmt.Sprintf("leak(%d)", int(k))
}

// Finding is one detected nonreversibility violation.
type Finding struct {
	Kind LeakKind
	// Site is the declassify site ID where the leak is observable.
	Site int
	// Pos is the source position of the declassify.
	Pos Pos
	// Secret is the taint tag of the leaked secret.
	Secret taint.Tag
	// Value is the symbolic expression revealed (explicit leaks).
	Value sym.Expr
	// Values holds the two differing revealed values (implicit leaks).
	Values [2]sym.Expr
	// Path is the path condition under which the leak manifests.
	Path *solver.PathCondition
	// Inversion is the affine recovery formula, when one exists.
	Inversion *sym.Inversion
	// Message is a human-readable description, Box-1 style.
	Message string
}

// Analysis is the result of analyzing a PRIML program.
type Analysis struct {
	Findings []Finding
	// Trace is the row-by-row simulation table (Tables II and III).
	Trace *Trace
	// Paths is the number of completed execution paths.
	Paths int
	// Builder owns the secret symbols minted during the analysis.
	Builder *sym.Builder
	// SecretSymbols maps get_secret occurrence index to its symbol.
	SecretSymbols map[int]*sym.Symbol
}

// HasExplicit reports whether any explicit leak was found.
func (a *Analysis) HasExplicit() bool { return a.count(ExplicitLeak) > 0 }

// HasImplicit reports whether any implicit leak was found.
func (a *Analysis) HasImplicit() bool { return a.count(ImplicitLeak) > 0 }

// Secure reports whether the program satisfies nonreversibility.
func (a *Analysis) Secure() bool { return len(a.Findings) == 0 }

func (a *Analysis) count(k LeakKind) int {
	n := 0
	for _, f := range a.Findings {
		if f.Kind == k {
			n++
		}
	}
	return n
}

// Options configures the analyzer.
type Options struct {
	// PruneInfeasible uses the solver to skip branches whose symbolic
	// path condition is unsatisfiable. Off by default: the paper's
	// PS-TCOND/PS-FCOND rules fork unconditionally (Table III explores
	// the integer-infeasible then-branch of h-5==14). Branches whose
	// condition folds to a constant are never forked, matching the
	// concrete TCOND/FCOND rules.
	PruneInfeasible bool
	// MaxPaths bounds path explosion; 0 means DefaultMaxPaths.
	MaxPaths int
	// RecordTrace enables the Tables II/III simulation trace.
	RecordTrace bool
	// ImplicitCheck enables Alg. 1's hashmap-based implicit detection
	// (ablation switch; on by default).
	ImplicitCheck bool
	// CustomPolicy, when set, is invoked at every declassify *in
	// addition to* the built-in nonreversibility policy — the user
	// extension hook the paper describes ("PRIML's formal semantics can
	// be extended by users who wish to introduce their own specialized
	// notion of nonreversibility", §IX). Return a non-empty message to
	// report a custom violation.
	CustomPolicy func(value sym.Expr, label taint.Label, pi *solver.PathCondition) string
}

// DefaultMaxPaths bounds exploration for pathological inputs.
const DefaultMaxPaths = 4096

// DefaultOptions returns the standard analyzer configuration.
func DefaultOptions() Options {
	return Options{RecordTrace: true, ImplicitCheck: true}
}

// Analyzer detects nonreversibility violations in PRIML programs.
type Analyzer struct {
	opts Options
}

// NewAnalyzer returns an analyzer with the given options.
func NewAnalyzer(opts Options) *Analyzer {
	if opts.MaxPaths <= 0 {
		opts.MaxPaths = DefaultMaxPaths
	}
	return &Analyzer{opts: opts}
}

// Analyze lowers the program to the shared analysis IR, symbolically
// explores it with the shared engine, and returns all findings.
func (an *Analyzer) Analyze(p *Program) (*Analysis, error) {
	low, err := LowerPRIML(p)
	if err != nil {
		return nil, err
	}
	var alloc taint.Allocator
	run := &adapterRun{
		builder: sym.NewBuilder(&alloc),
		secrets: make(map[int]*sym.Symbol),
		low:     low,
		res: &Analysis{
			Trace:         NewTrace(),
			SecretSymbols: make(map[int]*sym.Symbol),
		},
	}
	run.alg1 = core.NewAlg1()
	run.alg1.ImplicitCheck = an.opts.ImplicitCheck
	run.alg1.CustomPolicy = an.opts.CustomPolicy
	run.alg1.SymbolForTag = run.symbolForTag
	run.alg1.OnViolation = run.onViolation

	engOpts := symexec.Options{
		PruneInfeasible: an.opts.PruneInfeasible,
		MaxPaths:        an.opts.MaxPaths,
		// PRIML reads of never-assigned variables evaluate to 0 without
		// entering Δ.
		ZeroDefaultVars: true,
		Intrinsics: map[string]symexec.IntrinsicFunc{
			GetSecretIntrinsic:  run.getSecret,
			DeclassifyIntrinsic: run.declassify,
		},
	}
	if an.opts.RecordTrace {
		engOpts.NoteHook = run.note
	}
	eng := symexec.NewIR(low.Prog, engOpts)
	res, err := eng.AnalyzeFunction(context.Background(), EntryFunc, nil)
	if err != nil {
		return nil, err
	}
	if res.Coverage.Truncated {
		// PRIML analyses are exhaustive or failed: a truncated exploration
		// would make the end-of-last-path hm check unsound, so surface it
		// as an error instead of a partial verdict.
		if res.Coverage.Reason == symexec.TruncPathBudget {
			return nil, fmt.Errorf("priml: analyzer: path budget exhausted (%d)", an.opts.MaxPaths)
		}
		return nil, fmt.Errorf("priml: analyzer: exploration truncated (%s)", res.Coverage.Reason)
	}
	run.res.Paths = len(res.Paths)
	run.alg1.Finish(run.res.Paths)
	run.res.Builder = run.builder
	for idx, s := range run.secrets {
		run.res.SecretSymbols[idx] = s
	}
	sortFindings(run.res.Findings)
	return run.res, nil
}

func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Site != fs[j].Site {
			return fs[i].Site < fs[j].Site
		}
		return fs[i].Kind < fs[j].Kind
	})
}

// adapterRun is the per-analysis state bridging the engine to the PRIML
// surface: the secret-symbol table, the Alg. 1 kernel, and the trace
// renderer. The engine explores PRIML programs sequentially (the NoteHook
// and the hm protocol both require depth-first path order), so no locking
// is needed here.
type adapterRun struct {
	builder *sym.Builder
	secrets map[int]*sym.Symbol // get_secret occurrence → symbol
	low     *Lowered
	alg1    *core.Alg1
	res     *Analysis
	aborted bool // abort flag for the current trace row
}

// getSecret implements PS-INPUT: one fresh symbol per syntactic occurrence
// so all paths agree on identity.
func (r *adapterRun) getSecret(c symexec.IntrinsicCall) (sym.Expr, error) {
	idx := intrinsicIndex(c.Args[0])
	s, ok := r.secrets[idx]
	if !ok {
		s = r.builder.FreshSecret("")
		r.secrets[idx] = s
	}
	return s, nil
}

// declassify implements PS-DECLASS: run Alg. 1 and return the value.
func (r *adapterRun) declassify(c symexec.IntrinsicCall) (sym.Expr, error) {
	val := c.Args[0]
	site := intrinsicIndex(c.Args[1])
	r.alg1.Declassify(site, c.Pos, val, c.PC)
	return val, nil
}

// intrinsicIndex extracts the concrete site / occurrence index the lowering
// embedded as an integer-literal argument.
func intrinsicIndex(e sym.Expr) int {
	if c, ok := e.(sym.IntConst); ok {
		return int(c.V)
	}
	return 0
}

// onViolation phrases one kernel violation as a PRIML finding.
func (r *adapterRun) onViolation(v core.Alg1Violation) {
	pos := Pos{Line: v.Pos.Line, Col: v.Pos.Col}
	switch v.Kind {
	case core.Alg1Custom:
		r.res.Findings = append(r.res.Findings, Finding{
			Kind:    CustomLeak,
			Site:    v.Site,
			Pos:     pos,
			Value:   v.Value,
			Path:    v.Pi,
			Message: v.CustomMessage,
		})
		r.aborted = true
	case core.Alg1Explicit:
		f := Finding{
			Kind:      ExplicitLeak,
			Site:      v.Site,
			Pos:       pos,
			Secret:    v.Tag,
			Value:     v.Value,
			Path:      v.Pi,
			Inversion: v.Inversion,
		}
		f.Message = explicitMessage(f)
		r.res.Findings = append(r.res.Findings, f)
		r.aborted = true
	case core.Alg1Implicit:
		f := Finding{
			Kind:   ImplicitLeak,
			Site:   v.Site,
			Pos:    pos,
			Secret: v.Tag,
			Values: v.Values,
			Path:   v.Pi,
		}
		f.Message = implicitMessage(f)
		r.res.Findings = append(r.res.Findings, f)
		r.aborted = true
	case core.Alg1Presence:
		f := Finding{
			Kind:   ImplicitLeak,
			Site:   v.Site,
			Pos:    pos,
			Secret: v.Tag,
			Values: v.Values,
			Path:   v.Pi,
		}
		f.Message = fmt.Sprintf(
			"implicit nonreversibility violation: declassify at site %d executes only on paths where π depends on secret %v; observing output presence reveals the secret",
			v.Site, v.Tag)
		r.res.Findings = append(r.res.Findings, f)
	}
}

func (r *adapterRun) symbolForTag(tag taint.Tag) *sym.Symbol {
	for _, s := range r.secrets {
		if s.Tag == tag {
			return s
		}
	}
	return nil
}

// note renders one simulation-table row from the engine state at a NoteOp.
// Δ and τΔ are recomputed from the store: a variable is in Δ exactly when
// the path assigned it (ZeroDefaultVars never binds defaults), its label is
// derivable from its value, and π's label is the join over the branch
// conditions taken — the same values PS-ASSIGN/P_cond maintain
// incrementally.
func (r *adapterRun) note(view symexec.StateView, data any) {
	stmt, _ := data.(string)
	delta := make(map[string]string)
	tau := make(map[string]string)
	for _, g := range r.low.Prog.Module.Globals {
		if val, ok := view.Global(g); ok {
			delta[g.Name] = trimOuterParens(val.String())
			tau[g.Name] = sym.TaintOf(val).String()
		}
	}
	pc := view.PC()
	if pc.Len() > 0 {
		tau[taint.PiVar] = pc.Taint().String()
	}
	r.res.Trace.Append(Row{
		Statement: stmt,
		Delta:     delta,
		Pi:        pc.String(),
		Tau:       tau,
		Hm:        r.alg1.HmSnapshot(),
		Abort:     r.aborted,
	})
	r.aborted = false
}

func explicitMessage(f Finding) string {
	msg := fmt.Sprintf(
		"explicit nonreversibility violation at site %d: declassified value %s is tainted only by secret %v",
		f.Site, f.Value, f.Secret)
	if f.Inversion != nil && f.Inversion.Exact {
		msg += "; attacker recovers it via " + f.Inversion.Formula()
	}
	return msg
}

func implicitMessage(f Finding) string {
	return fmt.Sprintf(
		"implicit nonreversibility violation at site %d: paths branching on secret %v declassify different values (%s vs %s)",
		f.Site, f.Secret, f.Values[0], f.Values[1])
}

func trimOuterParens(s string) string {
	for len(s) >= 2 && s[0] == '(' && s[len(s)-1] == ')' {
		depth := 0
		balanced := true
		for i := 0; i < len(s)-1; i++ {
			switch s[i] {
			case '(':
				depth++
			case ')':
				depth--
			}
			if depth == 0 {
				balanced = false
				break
			}
		}
		if !balanced {
			return s
		}
		s = s[1 : len(s)-1]
	}
	return s
}
