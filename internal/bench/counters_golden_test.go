package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// This file pins the evaluation's deterministic counters: findings, paths,
// states, solver queries, pruned paths, summary and batch work. The engine
// is seeded, so any change to them is a change in what the analyzer
// explores or finds. Wall-clock columns are not recorded; the performance
// gate is psbench (cmd/psbench). Regenerate with
//
//	go test ./internal/bench -run '^TestBenchCountersGolden$' -update
//
// only when a change to the counters is intended.

var update = flag.Bool("update", false, "rewrite testdata/counters_golden.txt")

const countersGoldenPath = "testdata/counters_golden.txt"

// renderCounters prints one line per measured row of Table V, the
// §VIII-C scalability study (deep Kmeans included) and the summary,
// detector and batch tables, counters only.
func renderCounters() (string, error) {
	var sb strings.Builder
	tv, err := TableV()
	if err != nil {
		return "", err
	}
	for _, r := range tv {
		fmt.Fprintf(&sb, "tableV %s loc=%d findings=%d paths=%d states=%d queries=%d pruned=%d\n",
			r.Name, r.LoC, r.Findings, r.Paths, r.States, r.SolverQueries, r.PathsPruned)
	}
	sc, err := Scalability()
	if err != nil {
		return "", err
	}
	deep, err := DeepKmeans()
	if err != nil {
		return "", err
	}
	for i, r := range append(sc, deep) {
		name := "synthetic"
		if i == len(sc) {
			name = "deep-kmeans"
		}
		fmt.Fprintf(&sb, "scalability %s branches=%d straight=%d paths=%d states=%d queries=%d pruned=%d\n",
			name, r.Branches, r.Straight, r.Paths, r.States, r.SolverQueries, r.PathsPruned)
	}
	sr, err := SummaryBench()
	if err != nil {
		return "", err
	}
	for _, r := range sr {
		fmt.Fprintf(&sb, "summary %s helpers=%d entries=%d findings=%d paths=%d states=%d summariesComputed=%d inlineSteps=%d summarySteps=%d stepReduction=%.4f\n",
			r.Name, r.Helpers, r.Entries, r.Findings, r.Paths, r.States,
			r.SummariesComputed, r.InlineSteps, r.SummarySteps, r.StepReduction)
	}
	dr, err := DetectorBench()
	if err != nil {
		return "", err
	}
	for _, r := range dr {
		fmt.Fprintf(&sb, "detector %s findings=%d packFindings=%d paths=%d states=%d\n",
			r.Config, r.Findings, r.PackFindings, r.Paths, r.States)
	}
	bb, err := BatchBench()
	if err != nil {
		return "", err
	}
	for _, r := range bb {
		fmt.Fprintf(&sb, "batch %s units=%d engineAnalyses=%d diskHits=%d\n",
			r.Mode, r.Units, r.EngineAnalyses, r.DiskHits)
	}
	return sb.String(), nil
}

// TestBenchCountersGolden requires the evaluation's counters to match the
// committed golden line for line.
func TestBenchCountersGolden(t *testing.T) {
	got, err := renderCounters()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(countersGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(countersGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("counters golden differs at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
