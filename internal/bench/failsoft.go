package bench

import (
	"fmt"
	"strings"
	"time"

	"privacyscope/internal/core"
	"privacyscope/internal/minic"
	"privacyscope/internal/obs"
	"privacyscope/internal/symexec"
)

// This file measures the fail-soft degradation modes (docs/ROBUSTNESS.md):
// the same deliberately over-budget module analyzed under a path budget, a
// step budget, and a wall-clock deadline. Where the pre-robustness analyzer
// aborted with an error, each run now returns the paths it completed plus
// an explicit Coverage record and an Inconclusive verdict — quantifying
// what a truncated exploration still buys.

// FailsoftRow is one degraded-mode measurement.
type FailsoftRow struct {
	Mode      string // which budget was exhausted
	Verdict   string
	Reason    string // coverage truncation reason
	Completed int    // paths completed before the cut
	StepsUsed int
	Degraded  int64 // check.degraded counter
	Seconds   float64
}

// Failsoft analyzes a 2^10-path module under three budgets sized so each
// run is cut early, and records the degraded outcome of each.
func Failsoft() ([]FailsoftRow, error) {
	src := ScalabilityProgram(10, 4) // 1024 paths, far over every budget below
	params := []symexec.ParamSpec{
		{Name: "secrets", Class: symexec.ParamSecret},
		{Name: "output", Class: symexec.ParamOut},
	}
	measure := func(mode string, tune func(*core.Options)) (FailsoftRow, error) {
		file, err := minic.Parse(src)
		if err != nil {
			return FailsoftRow{}, err
		}
		metrics := obs.NewMetrics()
		opts := core.DefaultOptions()
		opts.ReplayWitness = false
		opts.Observer = metrics
		tune(&opts)
		start := time.Now()
		report, err := runDetect(opts, file, "f", params)
		if err != nil {
			return FailsoftRow{}, fmt.Errorf("%s: budget exhaustion must degrade, not fail: %w", mode, err)
		}
		return FailsoftRow{
			Mode:      mode,
			Verdict:   report.Verdict().String(),
			Reason:    string(report.Coverage.Reason),
			Completed: report.Coverage.CompletedPaths,
			StepsUsed: report.Coverage.StepsUsed,
			Degraded:  metrics.Counter("check.degraded"),
			Seconds:   time.Since(start).Seconds(),
		}, nil
	}
	var rows []FailsoftRow
	row, err := measure("path-budget", func(o *core.Options) { o.Engine.MaxPaths = 32 })
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	row, err = measure("step-budget", func(o *core.Options) { o.Engine.MaxSteps = 2000 })
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	row, err = measure("deadline", func(o *core.Options) { o.Deadline = time.Nanosecond })
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	return rows, nil
}

// RenderFailsoft formats the degraded-mode table.
func RenderFailsoft(rows []FailsoftRow) string {
	var sb strings.Builder
	sb.WriteString("Fail-soft degradation — over-budget module (1024 paths) under three cuts\n")
	sb.WriteString(fmt.Sprintf("%-12s %-13s %-12s %10s %10s %9s %12s\n",
		"mode", "verdict", "reason", "completed", "steps", "degraded", "time(s)"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-12s %-13s %-12s %10d %10d %9d %12.6f\n",
			r.Mode, r.Verdict, r.Reason, r.Completed, r.StepsUsed, r.Degraded, r.Seconds))
	}
	sb.WriteString("every cut keeps its completed paths and reports Inconclusive instead of\n")
	sb.WriteString("erroring — a truncated run never claims the module is secure.\n")
	return sb.String()
}
