// Package bench regenerates every table and figure of the paper's
// evaluation as printed rows: the Fig. 1/2 lattice tables, the Table II/III
// PRIML simulation traces, the Table IV symbolic exploration, the Table V
// performance table (paper vs. measured), the Table VI detection matrix,
// and the two §VI-D case studies. cmd/benchreport prints them; the
// testing.B benchmarks in the repository root time them.
package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"privacyscope/internal/baseline"
	"privacyscope/internal/core"
	"privacyscope/internal/detect"
	"privacyscope/internal/edl"
	"privacyscope/internal/ir"
	"privacyscope/internal/minic"
	"privacyscope/internal/mlsuite"
	"privacyscope/internal/obs"
	"privacyscope/internal/priml"
	"privacyscope/internal/symexec"
	"privacyscope/internal/taint"
)

// Example1PRIML is the paper's Example 1 (Table II).
const Example1PRIML = `h1 := 2 * get_secret(secret);
h2 := 3 * get_secret(secret);
x := h1 + h2;
declassify(x);
declassify(h1)`

// Example2PRIML is the paper's Example 2 (Table III).
const Example2PRIML = `h := 2 * get_secret(secret);
if h - 5 == 14 then declassify(0) else declassify(1)`

// Listing1C is the paper's Listing 1 (Table IV, Box 1).
const Listing1C = `
int enclave_process_data(char *secrets, char *output)
{
    int temporary = secrets[0] + 100;
    output[0] = temporary + 1;
    if (secrets[1] == 0)
        return 0;
    else
        return 1;
}
`

// Listing1EDL is the matching interface file.
const Listing1EDL = `
enclave {
    trusted {
        public int enclave_process_data([in] char *secrets, [out] char *output);
    };
};
`

// Fig1LatticeTable renders the join table of the security semi-lattice.
func Fig1LatticeTable() string {
	labels := []taint.Label{taint.Bottom(), taint.Single(1), taint.Single(2), taint.Top()}
	var sb strings.Builder
	sb.WriteString("Fig. 1 — security semi-lattice join table\n")
	sb.WriteString("  ⊔  |")
	for _, l := range labels {
		fmt.Fprintf(&sb, " %3s", l)
	}
	sb.WriteString("\n-----+----------------\n")
	for _, a := range labels {
		fmt.Fprintf(&sb, " %3s |", a)
		for _, b := range labels {
			fmt.Fprintf(&sb, " %3s", a.Join(b))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Fig2PropagationTable renders the binop/cond propagation rules.
func Fig2PropagationTable() string {
	var alloc taint.Allocator
	p := taint.NewPolicy(&alloc)
	t1 := p.GetSecret()
	t2 := p.GetSecret()
	rows := []struct {
		name string
		out  taint.Label
	}{
		{"P_binop(⊥, ⊥)", p.Binop(taint.Bottom(), taint.Bottom())},
		{"P_binop(t1, ⊥)", p.Binop(t1, taint.Bottom())},
		{"P_binop(t1, t1)", p.Binop(t1, t1)},
		{"P_binop(t1, t2)", p.Binop(t1, t2)},
		{"P_binop(t1, ⊤)", p.Binop(t1, taint.Top())},
		{"P_cond(t1, ⊥)", p.Cond(t1, taint.Bottom())},
		{"P_cond(t2, t1)", p.Cond(t2, t1)},
		{"P_cond(⊥, ⊤)", p.Cond(taint.Bottom(), taint.Top())},
	}
	var sb strings.Builder
	sb.WriteString("Fig. 2 — taint propagation (binary ops and conditionals)\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-16s = %s\n", r.name, r.out)
	}
	return sb.String()
}

// RunPRIMLExample analyzes a PRIML example and returns the analysis.
func RunPRIMLExample(src string) (*priml.Analysis, error) {
	prog, err := priml.Parse(src)
	if err != nil {
		return nil, err
	}
	return priml.NewAnalyzer(priml.DefaultOptions()).Analyze(prog)
}

// TableII renders the Table II simulation (explicit leakage, Example 1).
func TableII() (string, error) {
	res, err := RunPRIMLExample(Example1PRIML)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Table II — simulation of PrivacyScope detecting explicit leakage\n")
	sb.WriteString(res.Trace.Render())
	for _, f := range res.Findings {
		fmt.Fprintf(&sb, "finding: %s\n", f.Message)
	}
	return sb.String(), nil
}

// TableIII renders the Table III simulation (implicit leakage, Example 2).
func TableIII() (string, error) {
	res, err := RunPRIMLExample(Example2PRIML)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Table III — simulation of PrivacyScope detecting implicit leakage\n")
	sb.WriteString(res.Trace.Render())
	for _, f := range res.Findings {
		fmt.Fprintf(&sb, "finding: %s\n", f.Message)
	}
	return sb.String(), nil
}

// TableIV runs the Listing 1 exploration with tracing and renders the
// explored states.
func TableIV() (string, error) {
	file, err := minic.Parse(Listing1C)
	if err != nil {
		return "", err
	}
	opts := symexec.DefaultOptions()
	opts.TrackTrace = true
	engine := symexec.New(file, opts)
	res, err := engine.AnalyzeFunction(context.Background(), "enclave_process_data", []symexec.ParamSpec{
		{Name: "secrets", Class: symexec.ParamSecret},
		{Name: "output", Class: symexec.ParamOut},
	})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Table IV — symbolic exploration of Listing 1\n")
	sb.WriteString(res.Trace.Render())
	fmt.Fprintf(&sb, "paths: %d, states: %d, regions: %d\n", len(res.Paths), res.States, res.Regions)
	return sb.String(), nil
}

// runDetect analyzes one entry point on the production path, detect.Run,
// with the default detector set.
func runDetect(opts core.Options, file *minic.File, fn string, params []symexec.ParamSpec) (*core.Report, error) {
	return detect.Run(context.Background(), detect.DefaultSet(), opts, ir.LowerMiniC(file), fn, params)
}

// Box1 renders the warning report for Listing 1.
func Box1() (string, error) {
	file, err := minic.Parse(Listing1C)
	if err != nil {
		return "", err
	}
	report, err := runDetect(core.DefaultOptions(), file, "enclave_process_data",
		[]symexec.ParamSpec{
			{Name: "secrets", Class: symexec.ParamSecret},
			{Name: "output", Class: symexec.ParamOut},
		})
	if err != nil {
		return "", err
	}
	return report.Render(), nil
}

// TableVRow is one measured row of the performance table, extended with the
// engine-level counter snapshot of the run (states explored, solver queries
// issued, infeasible paths pruned).
type TableVRow struct {
	Name          string
	LoC           int
	PaperLoC      int
	Seconds       float64
	PaperSeconds  float64
	Findings      int
	Paths         int
	States        int64
	SolverQueries int64
	PathsPruned   int64
}

// TableV analyzes the three ML modules and measures wall-clock analysis
// time, the paper's Table V metric, plus the engine counters per module.
func TableV() ([]TableVRow, error) {
	var rows []TableVRow
	for _, m := range mlsuite.Modules() {
		row := TableVRow{
			Name:         m.Name,
			LoC:          mlsuite.CountLoC(m.C),
			PaperLoC:     m.PaperLoC,
			PaperSeconds: m.PaperSeconds,
		}
		file, err := minic.Parse(m.C)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		iface, err := edl.Parse(m.EDL)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		metrics := obs.NewMetrics()
		opts := core.DefaultOptions()
		opts.Observer = metrics
		start := time.Now()
		for _, ecall := range m.ECalls {
			sig, ok := iface.ECall(ecall)
			if !ok {
				return nil, fmt.Errorf("%s: no ECALL %s", m.Name, ecall)
			}
			report, err := runDetect(opts, file, ecall, edl.ParamSpecs(sig, nil))
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", m.Name, ecall, err)
			}
			row.Findings += len(report.Findings)
			row.Paths += report.Paths
		}
		row.Seconds = time.Since(start).Seconds()
		row.States = metrics.Counter("symexec.states")
		row.SolverQueries = metrics.Counter("solver.queries")
		row.PathsPruned = metrics.Counter("symexec.paths.pruned")
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTableV formats the measured rows next to the paper's numbers.
func RenderTableV(rows []TableVRow) string {
	var sb strings.Builder
	sb.WriteString("Table V — performance evaluation (paper vs. measured)\n")
	sb.WriteString(fmt.Sprintf("%-18s %9s %9s %12s %14s %9s %7s %8s %8s %7s\n",
		"Module", "LoC", "paperLoC", "time(s)", "paper-time(s)", "findings", "paths",
		"states", "queries", "pruned"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-18s %9d %9d %12.6f %14.3f %9d %7d %8d %8d %7d\n",
			r.Name, r.LoC, r.PaperLoC, r.Seconds, r.PaperSeconds, r.Findings, r.Paths,
			r.States, r.SolverQueries, r.PathsPruned))
	}
	return sb.String()
}

// TableVICell is one verdict of the detection matrix.
type TableVICell struct {
	Analysis string
	Case     string
	Flagged  bool
}

// tableVISuite is the shared leak benchmark (same shapes as the baseline
// package's tests).
var tableVISuite = []struct{ name, src string }{
	{"explicit", `
int f(int *secrets, int *output) {
    output[0] = secrets[0] + 4;
    return 0;
}`},
	{"implicit", `
int f(int *secrets, int *output) {
    if (secrets[0] == 19) { output[0] = 0; }
    else { output[0] = 1; }
    return 0;
}`},
	{"masked-ml", `
int f(int *secrets, int *output) {
    output[0] = secrets[0] + secrets[1] + secrets[2];
    return 0;
}`},
	{"clean", `
int f(int *secrets, int *output) {
    output[0] = 42;
    return 0;
}`},
}

func tableVIParams() []symexec.ParamSpec {
	return []symexec.ParamSpec{
		{Name: "secrets", Class: symexec.ParamSecret},
		{Name: "output", Class: symexec.ParamOut},
	}
}

// TableVI runs PrivacyScope and both baselines over the shared suite.
func TableVI() ([]TableVICell, error) {
	var cells []TableVICell
	for _, tc := range tableVISuite {
		file, err := minic.Parse(tc.src)
		if err != nil {
			return nil, err
		}
		ps, err := runDetect(core.DefaultOptions(), file, "f", tableVIParams())
		if err != nil {
			return nil, err
		}
		cells = append(cells, TableVICell{"PrivacyScope (NonRev)", tc.name, !ps.Secure()})

		ni, err := baseline.NewNoninterference(symexec.DefaultOptions()).Check(file, "f", tableVIParams())
		if err != nil {
			return nil, err
		}
		cells = append(cells, TableVICell{"Noninterference", tc.name, !ni.Secure()})

		dfa, err := baseline.NewDFATaint().Check(file, "f", tableVIParams())
		if err != nil {
			return nil, err
		}
		cells = append(cells, TableVICell{"DFA taint (path-insens.)", tc.name, !dfa.Secure()})

		ts, err := baseline.NewTypeSystem().Check(file, "f", tableVIParams())
		if err != nil {
			return nil, err
		}
		cells = append(cells, TableVICell{"Security type system", tc.name, !ts.Secure()})
	}
	return cells, nil
}

// RenderTableVI formats the detection matrix.
func RenderTableVI(cells []TableVICell) string {
	byAnalysis := map[string]map[string]bool{}
	var analyses []string
	for _, c := range cells {
		if byAnalysis[c.Analysis] == nil {
			byAnalysis[c.Analysis] = map[string]bool{}
			analyses = append(analyses, c.Analysis)
		}
		byAnalysis[c.Analysis][c.Case] = c.Flagged
	}
	var sb strings.Builder
	sb.WriteString("Table VI — measured detection matrix (✓ = flagged)\n")
	sb.WriteString(fmt.Sprintf("%-26s %9s %9s %10s %7s\n", "Analysis", "explicit", "implicit", "masked-ml", "clean"))
	mark := func(b bool) string {
		if b {
			return "✓"
		}
		return "·"
	}
	for _, a := range analyses {
		m := byAnalysis[a]
		sb.WriteString(fmt.Sprintf("%-26s %9s %9s %10s %7s\n",
			a, mark(m["explicit"]), mark(m["implicit"]), mark(m["masked-ml"]), mark(m["clean"])))
	}
	sb.WriteString("desired: PrivacyScope flags explicit+implicit only; noninterference and the\n")
	sb.WriteString("security type system also reject the masked ML aggregate (the paper's\n")
	sb.WriteString("motivation); path-insensitive DFA taint misses the implicit leak.\n")
	return sb.String()
}

// CaseStudies runs §VI-D-1 (Recommender, 6 violations) and §VI-D-2
// (Kmeans injection) and renders the outcome.
func CaseStudies() (string, error) {
	var sb strings.Builder
	sb.WriteString("Case study 1 (§VI-D-1) — Recommender pre-existing violations\n")
	total := 0
	recFile, err := minic.Parse(mlsuite.RecommenderC)
	if err != nil {
		return "", err
	}
	recIface, err := edl.Parse(mlsuite.RecommenderEDL)
	if err != nil {
		return "", err
	}
	for _, ecall := range mlsuite.RecommenderECalls {
		sig, _ := recIface.ECall(ecall)
		report, err := runDetect(core.DefaultOptions(), recFile, ecall, edl.ParamSpecs(sig, nil))
		if err != nil {
			return "", err
		}
		total += len(report.Findings)
		for _, f := range report.Findings {
			fmt.Fprintf(&sb, "  [%s] %s\n", ecall, f.Message)
		}
	}
	fmt.Fprintf(&sb, "  total: %d violations (paper: 6)\n\n", total)

	sb.WriteString("Case study 2 (§VI-D-2) — injected leakage in Kmeans\n")
	evilFile, err := minic.Parse(mlsuite.MaliciousKmeansC)
	if err != nil {
		return "", err
	}
	evilIface, err := edl.Parse(mlsuite.MaliciousKmeansEDL)
	if err != nil {
		return "", err
	}
	sig, _ := evilIface.ECall("enclave_train_kmeans")
	report, err := runDetect(core.DefaultOptions(), evilFile, "enclave_train_kmeans", edl.ParamSpecs(sig, nil))
	if err != nil {
		return "", err
	}
	for _, f := range report.Findings {
		if f.Where == "centroids[4]" || f.Where == "centroids[5]" {
			fmt.Fprintf(&sb, "  [injected, detected] %s\n", f.Message)
		}
	}
	return sb.String(), nil
}

// AblationRow is one ablation measurement.
type AblationRow struct {
	Name     string
	Config   string
	Paths    int
	Findings int
	Seconds  float64
}

// Ablations exercises the design-choice switches DESIGN.md calls out.
func Ablations() ([]AblationRow, error) {
	var rows []AblationRow
	run := func(name, config string, set detect.Set, opts core.Options, src, fn string, params []symexec.ParamSpec) error {
		file, err := minic.Parse(src)
		if err != nil {
			return err
		}
		start := time.Now()
		report, err := detect.Run(context.Background(), set, opts, ir.LowerMiniC(file), fn, params)
		if err != nil {
			return err
		}
		rows = append(rows, AblationRow{
			Name: name, Config: config,
			Paths: report.Paths, Findings: len(report.Findings),
			Seconds: time.Since(start).Seconds(),
		})
		return nil
	}
	params := tableVIParams()

	// Implicit check on/off over Listing 1: the default set against
	// explicit alone.
	explicitOnly, err := detect.ResolveSet(nil, nil, []string{"explicit"})
	if err != nil {
		return nil, err
	}
	listing1 := []symexec.ParamSpec{{Name: "secrets", Class: symexec.ParamSecret}, {Name: "output", Class: symexec.ParamOut}}
	if err := run("implicit-check", "on", detect.DefaultSet(), core.DefaultOptions(), Listing1C, "enclave_process_data", listing1); err != nil {
		return nil, err
	}
	if err := run("implicit-check", "off", explicitOnly, core.DefaultOptions(), Listing1C, "enclave_process_data", listing1); err != nil {
		return nil, err
	}

	// Solver pruning on/off over a contradictory-branch program.
	pruneSrc := `
int f(int *secrets, int *output) {
    int a = secrets[0];
    if (a > 0) {
        if (a < 0) { output[0] = a; } else { output[0] = 0; }
    } else { output[0] = 0; }
    return 0;
}`
	pruned := core.DefaultOptions()
	unpruned := core.DefaultOptions()
	unpruned.Engine.PruneInfeasible = false
	if err := run("solver-pruning", "on", detect.DefaultSet(), pruned, pruneSrc, "f", params); err != nil {
		return nil, err
	}
	if err := run("solver-pruning", "off", detect.DefaultSet(), unpruned, pruneSrc, "f", params); err != nil {
		return nil, err
	}

	// Loop-bound sweep over a symbolic-bound loop.
	loopSrc := `
int f(int *secrets, int n, int *output) {
    int i = 0;
    while (i < n) { i++; }
    output[0] = i;
    return 0;
}`
	loopParams := []symexec.ParamSpec{
		{Name: "secrets", Class: symexec.ParamSecret},
		{Name: "n", Class: symexec.ParamPublic},
		{Name: "output", Class: symexec.ParamOut},
	}
	for _, bound := range []int{2, 4, 8, 16} {
		opts := core.DefaultOptions()
		opts.Engine.LoopBound = bound
		if err := run("loop-bound", fmt.Sprintf("%d", bound), detect.DefaultSet(), opts, loopSrc, "f", loopParams); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// RenderAblations formats the ablation rows.
func RenderAblations(rows []AblationRow) string {
	var sb strings.Builder
	sb.WriteString("Ablations — design-choice switches\n")
	sb.WriteString(fmt.Sprintf("%-16s %-8s %7s %9s %12s\n", "Ablation", "config", "paths", "findings", "time(s)"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-16s %-8s %7d %9d %12.6f\n", r.Name, r.Config, r.Paths, r.Findings, r.Seconds))
	}
	return sb.String()
}

// RunAll renders every experiment in order; cmd/benchreport prints it.
func RunAll() (string, error) {
	var sb strings.Builder
	sb.WriteString(Fig1LatticeTable())
	sb.WriteByte('\n')
	sb.WriteString(Fig2PropagationTable())
	sb.WriteByte('\n')
	for _, fn := range []func() (string, error){TableII, TableIII, TableIV, Box1, CaseStudies} {
		out, err := fn()
		if err != nil {
			return "", err
		}
		sb.WriteString(out)
		sb.WriteByte('\n')
	}
	rows, err := TableV()
	if err != nil {
		return "", err
	}
	sb.WriteString(RenderTableV(rows))
	sb.WriteByte('\n')
	cells, err := TableVI()
	if err != nil {
		return "", err
	}
	sb.WriteString(RenderTableVI(cells))
	sb.WriteByte('\n')
	ab, err := Ablations()
	if err != nil {
		return "", err
	}
	sb.WriteString(RenderAblations(ab))
	sb.WriteByte('\n')
	sc, err := Scalability()
	if err != nil {
		return "", err
	}
	deep, err := DeepKmeans()
	if err != nil {
		return "", err
	}
	sb.WriteString(RenderScalability(append(sc, deep)))
	sb.WriteString(fmt.Sprintf("(last row: Kmeans with ITERS=2 — %d paths through the full checker)\n", deep.Paths))
	sb.WriteByte('\n')
	fsRows, err := Failsoft()
	if err != nil {
		return "", err
	}
	sb.WriteString(RenderFailsoft(fsRows))
	sb.WriteByte('\n')
	bb, err := BatchBench()
	if err != nil {
		return "", err
	}
	sb.WriteString(RenderBatchBench(bb))
	sb.WriteByte('\n')
	sr, err := SummaryBench()
	if err != nil {
		return "", err
	}
	sb.WriteString(RenderSummaryBench(sr))
	sb.WriteByte('\n')
	dr, err := DetectorBench()
	if err != nil {
		return "", err
	}
	sb.WriteString(RenderDetectorBench(dr))
	return sb.String(), nil
}
