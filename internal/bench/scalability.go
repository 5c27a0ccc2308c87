package bench

import (
	"fmt"
	"strings"
	"time"

	"privacyscope/internal/core"
	"privacyscope/internal/minic"
	"privacyscope/internal/mlsuite"
	"privacyscope/internal/obs"
	"privacyscope/internal/symexec"
)

// This file implements the §VIII-C scalability study. The paper notes that
// "symbolic execution is known to have limitation on scalability" and that
// enclave code "will become larger in the future"; this harness quantifies
// the path explosion on synthetic enclaves with a growing number of
// sequential secret-dependent branches (2^n paths) and growing straight-
// line length (linear).

// ScalabilityProgram generates an enclave entry point with `branches`
// sequential secret-dependent branches and `straight` straight-line
// statements. Each branch writes different constants, so the analysis must
// keep the paths apart.
func ScalabilityProgram(branches, straight int) string {
	var sb strings.Builder
	sb.WriteString("int f(int *secrets, int *output) {\n")
	sb.WriteString("    int acc = 0;\n")
	for i := 0; i < straight; i++ {
		fmt.Fprintf(&sb, "    acc = acc + secrets[%d];\n", i%4)
	}
	for i := 0; i < branches; i++ {
		fmt.Fprintf(&sb, "    if (secrets[%d] > %d) { acc = acc + %d; } else { acc = acc - %d; }\n",
			i, i, i+1, i+1)
	}
	sb.WriteString("    output[0] = acc;\n")
	sb.WriteString("    return 0;\n")
	sb.WriteString("}\n")
	return sb.String()
}

// ScalabilityRow is one measurement of the study, with the solver-side
// counters that explain where exploration time goes.
type ScalabilityRow struct {
	Branches      int
	Straight      int
	Paths         int
	States        int
	SolverQueries int64
	PathsPruned   int64
	Seconds       float64
}

// Scalability sweeps branch counts (path explosion) and straight-line
// lengths (linear growth) and measures exploration size and time.
func Scalability() ([]ScalabilityRow, error) {
	var rows []ScalabilityRow
	params := []symexec.ParamSpec{
		{Name: "secrets", Class: symexec.ParamSecret},
		{Name: "output", Class: symexec.ParamOut},
	}
	measure := func(branches, straight int) (ScalabilityRow, error) {
		src := ScalabilityProgram(branches, straight)
		file, err := minic.Parse(src)
		if err != nil {
			return ScalabilityRow{}, err
		}
		metrics := obs.NewMetrics()
		opts := core.DefaultOptions()
		opts.ReplayWitness = false // measure pure exploration
		opts.Engine.MaxPaths = 1 << 12
		opts.Observer = metrics
		start := time.Now()
		report, err := runDetect(opts, file, "f", params)
		if err != nil {
			return ScalabilityRow{}, err
		}
		return ScalabilityRow{
			Branches: branches, Straight: straight,
			Paths: report.Paths, States: report.States,
			SolverQueries: metrics.Counter("solver.queries"),
			PathsPruned:   metrics.Counter("symexec.paths.pruned"),
			Seconds:       time.Since(start).Seconds(),
		}, nil
	}
	for _, branches := range []int{1, 2, 4, 6, 8, 10} {
		row, err := measure(branches, 4)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	for _, straight := range []int{16, 64, 256} {
		row, err := measure(2, straight)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderScalability formats the study.
func RenderScalability(rows []ScalabilityRow) string {
	var sb strings.Builder
	sb.WriteString("Scalability (§VIII-C) — path explosion vs. program size\n")
	sb.WriteString(fmt.Sprintf("%-9s %-9s %7s %8s %8s %7s %12s\n",
		"branches", "straight", "paths", "states", "queries", "pruned", "time(s)"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-9d %-9d %7d %8d %8d %7d %12.6f\n",
			r.Branches, r.Straight, r.Paths, r.States, r.SolverQueries, r.PathsPruned, r.Seconds))
	}
	sb.WriteString("paths double per secret branch (2^n); straight-line growth is linear —\n")
	sb.WriteString("the scalability limitation the paper acknowledges for symbolic execution.\n")
	return sb.String()
}

// DeepKmeansC is the Kmeans module with a second Lloyd iteration: the
// second assignment round branches on the (symbolic) updated centroids, so
// paths grow from 2^4 to ~2^8. A realistic instance of the §VIII-C
// concern, used by TestDeepKmeansScales / BenchmarkDeepKmeans.
func DeepKmeansC() string {
	return strings.Replace(mlsuite.KmeansC, "#define ITERS 1", "#define ITERS 2", 1)
}

// DeepKmeans measures the two-iteration Kmeans analysis.
func DeepKmeans() (ScalabilityRow, error) {
	file, err := minic.Parse(DeepKmeansC())
	if err != nil {
		return ScalabilityRow{}, err
	}
	metrics := obs.NewMetrics()
	opts := core.DefaultOptions()
	opts.ReplayWitness = false
	opts.Engine.MaxPaths = 1 << 12
	opts.Observer = metrics
	start := time.Now()
	report, err := runDetect(opts, file, "enclave_train_kmeans", []symexec.ParamSpec{
		{Name: "points", Class: symexec.ParamSecret},
		{Name: "centroids", Class: symexec.ParamOut},
	})
	if err != nil {
		return ScalabilityRow{}, err
	}
	return ScalabilityRow{
		Branches: 8, Straight: 0,
		Paths: report.Paths, States: report.States,
		SolverQueries: metrics.Counter("solver.queries"),
		PathsPruned:   metrics.Counter("symexec.paths.pruned"),
		Seconds:       time.Since(start).Seconds(),
	}, nil
}
