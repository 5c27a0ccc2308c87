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

// WorkerScalingRow is one measurement of the parallel path-exploration
// study: the same branch-heavy program analyzed with a growing worker pool.
type WorkerScalingRow struct {
	Workers  int
	Paths    int
	Findings int
	// Spawned counts branches handed to pool goroutines, Inline branches
	// kept on the requesting goroutine (pool full or first arm).
	Spawned int64
	Inline  int64
	Seconds float64
	// Speedup is sequential seconds / this row's seconds.
	Speedup float64
}

// WorkerScaling measures intra-function parallel path exploration
// (Options.PathWorkers) on the 2^10-path synthetic enclave: workers 1, 2, 4
// and 8 over an identical workload. Findings are deterministic across
// worker counts (pinned by the engine's fork-key ordering), so the findings
// column must read the same in every row.
func WorkerScaling() ([]WorkerScalingRow, error) {
	src := ScalabilityProgram(10, 4)
	file, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	params := []symexec.ParamSpec{
		{Name: "secrets", Class: symexec.ParamSecret},
		{Name: "output", Class: symexec.ParamOut},
	}
	var rows []WorkerScalingRow
	for _, workers := range []int{1, 2, 4, 8} {
		metrics := obs.NewMetrics()
		opts := core.DefaultOptions()
		opts.ReplayWitness = false
		opts.Engine.MaxPaths = 1 << 12
		opts.Engine.PathWorkers = workers
		opts.Observer = metrics
		start := time.Now()
		report, err := runDetect(opts, file, "f", params)
		if err != nil {
			return nil, err
		}
		row := WorkerScalingRow{
			Workers:  workers,
			Paths:    report.Paths,
			Findings: len(report.Findings),
			Spawned:  metrics.Counter("symexec.workers.spawned"),
			Inline:   metrics.Counter("symexec.workers.inline"),
			Seconds:  time.Since(start).Seconds(),
		}
		if len(rows) > 0 {
			row.Speedup = rows[0].Seconds / row.Seconds
		} else {
			row.Speedup = 1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderWorkerScaling formats the path-worker study.
func RenderWorkerScaling(rows []WorkerScalingRow) string {
	var sb strings.Builder
	sb.WriteString("Path-worker scaling — 2^10-path synthetic enclave, identical findings per row\n")
	sb.WriteString(fmt.Sprintf("%-8s %7s %9s %8s %7s %12s %8s\n",
		"workers", "paths", "findings", "spawned", "inline", "time(s)", "speedup"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-8d %7d %9d %8d %7d %12.6f %7.2fx\n",
			r.Workers, r.Paths, r.Findings, r.Spawned, r.Inline, r.Seconds, r.Speedup))
	}
	sb.WriteString("workers=1 is the sequential baseline; results are byte-identical across rows\n")
	sb.WriteString("(deterministic fork-key ordering), only wall-clock time may differ.\n")
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
