// Command benchreport regenerates every table and figure of the paper's
// evaluation (Fig. 1/2, Tables II–VI, Box 1, the two case studies, and the
// design-choice ablations) and prints them, paper numbers alongside the
// measured ones. See EXPERIMENTS.md for the reading guide.
//
// With -json, the measured rows (Table V with engine counters, the §VIII-C
// scalability study, the privacyscoped daemon throughput table) are written
// as a machine-readable report instead of the rendered text.
//
// With -check FILE, a fresh measured run is compared against a committed
// snapshot (a previous -json output, e.g. BENCH_6.json): deterministic
// columns — findings, paths, states, solver queries, cache traffic — must
// match exactly, while timing columns (seconds, ms/request, speedup) only
// warn when they drift past -tolerance (they depend on the host). Exit
// status is 1 on deterministic drift, and on timing drift only with
// -strict.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"privacyscope/internal/bench"
	"privacyscope/internal/server"
)

// jsonReport is the -json payload: the quantitative rows of the evaluation
// with their engine-level counter snapshots.
type jsonReport struct {
	TableV        []bench.TableVRow        `json:"tableV"`
	Scalability   []bench.ScalabilityRow   `json:"scalability"`
	ServerBench   []server.ServerBenchRow  `json:"serverBench"`
	BatchBench    []bench.BatchBenchRow    `json:"batchBench"`
	SummaryBench  []bench.SummaryBenchRow  `json:"summaryBench"`
	DetectorBench []bench.DetectorBenchRow `json:"detectorBench"`
}

func main() {
	asJSON := flag.Bool("json", false, "emit the measured rows as JSON")
	check := flag.String("check", "", "compare a fresh run against this committed -json snapshot")
	tol := flag.Float64("tolerance", 0.5, "relative tolerance for timing columns in -check mode")
	strict := flag.Bool("strict", false, "fail -check on timing drift too, not just deterministic drift")
	flag.Parse()
	if err := run(*asJSON, *check, *tol, *strict); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run(asJSON bool, check string, tol float64, strict bool) error {
	if check != "" {
		return runCheck(check, tol, strict)
	}
	if !asJSON {
		out, err := bench.RunAll()
		if err != nil {
			return err
		}
		fmt.Print(out)
		sb, err := server.ServerBench()
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(server.RenderServerBench(sb))
		return nil
	}
	rep, err := measure()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// measure runs the machine-readable slice of the evaluation.
func measure() (jsonReport, error) {
	rows, err := bench.TableV()
	if err != nil {
		return jsonReport{}, err
	}
	sc, err := bench.Scalability()
	if err != nil {
		return jsonReport{}, err
	}
	deep, err := bench.DeepKmeans()
	if err != nil {
		return jsonReport{}, err
	}
	sb, err := server.ServerBench()
	if err != nil {
		return jsonReport{}, err
	}
	bb, err := bench.BatchBench()
	if err != nil {
		return jsonReport{}, err
	}
	sr, err := bench.SummaryBench()
	if err != nil {
		return jsonReport{}, err
	}
	dr, err := bench.DetectorBench()
	if err != nil {
		return jsonReport{}, err
	}
	return jsonReport{
		TableV:        rows,
		Scalability:   append(sc, deep),
		ServerBench:   sb,
		BatchBench:    bb,
		SummaryBench:  sr,
		DetectorBench: dr,
	}, nil
}

// runCheck measures fresh rows and diffs them against the snapshot file.
func runCheck(path string, tol float64, strict bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var want interface{}
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("snapshot %s: %w", path, err)
	}
	rep, err := measure()
	if err != nil {
		return err
	}
	// Round-trip the fresh report through JSON so both sides are the same
	// generic shape (maps/slices/float64).
	raw, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	var got interface{}
	if err := json.Unmarshal(raw, &got); err != nil {
		return err
	}

	var hard, soft []string
	compare("", want, got, tol, &hard, &soft)
	for _, w := range soft {
		fmt.Printf("WARN  %s\n", w)
	}
	for _, h := range hard {
		fmt.Printf("DRIFT %s\n", h)
	}
	fmt.Printf("benchreport -check vs %s: %d deterministic drift(s), %d timing warning(s) (tolerance %.0f%%)\n",
		path, len(hard), len(soft), tol*100)
	if len(hard) > 0 || (strict && len(soft) > 0) {
		return fmt.Errorf("measured run drifted from snapshot %s — regenerate it (make bench-snapshot) if the change is intended", path)
	}
	return nil
}

// schedulingColumn reports columns whose value depends on request arrival
// order rather than engine behavior: the daemon bench's cacheHits counts how
// many identical concurrent submissions landed after the leader finished
// (cache hit) instead of during it (singleflight join) — a race the invariant
// engineRuns column already pins. Skipped entirely.
func schedulingColumn(path string) bool {
	return strings.HasPrefix(path, "serverBench[") && strings.HasSuffix(path, ".cacheHits")
}

// timingColumn reports whether the JSON path names a host-dependent timing
// measurement rather than a deterministic engine count.
func timingColumn(path string) bool {
	seg := path
	if i := strings.LastIndexByte(path, '.'); i >= 0 {
		seg = path[i+1:]
	}
	seg = strings.ToLower(seg)
	return strings.Contains(seg, "seconds") || strings.Contains(seg, "ms") ||
		strings.Contains(seg, "speedup")
}

// compare walks two decoded-JSON values, appending human-readable drift
// lines: timing columns past tol go to soft, everything else to hard.
func compare(path string, want, got interface{}, tol float64, hard, soft *[]string) {
	switch w := want.(type) {
	case map[string]interface{}:
		g, ok := got.(map[string]interface{})
		if !ok {
			*hard = append(*hard, fmt.Sprintf("%s: shape changed (was object)", path))
			return
		}
		keys := make(map[string]bool)
		for k := range w {
			keys[k] = true
		}
		for k := range g {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			sub := k
			if path != "" {
				sub = path + "." + k
			}
			wv, wok := w[k]
			gv, gok := g[k]
			switch {
			case !gok:
				*hard = append(*hard, fmt.Sprintf("%s: column gone from measured run", sub))
			case !wok:
				// New column the snapshot predates — not drift; the next
				// snapshot regeneration picks it up.
			default:
				compare(sub, wv, gv, tol, hard, soft)
			}
		}
	case []interface{}:
		g, ok := got.([]interface{})
		if !ok || len(g) != len(w) {
			*hard = append(*hard, fmt.Sprintf("%s: row count %d → %d", path, len(w), len(g)))
			return
		}
		for i := range w {
			compare(fmt.Sprintf("%s[%d]", path, i), w[i], g[i], tol, hard, soft)
		}
	case float64:
		g, ok := got.(float64)
		if !ok {
			*hard = append(*hard, fmt.Sprintf("%s: shape changed (was number)", path))
			return
		}
		if schedulingColumn(path) {
			return
		}
		if timingColumn(path) {
			base := math.Max(math.Abs(w), 1e-9)
			if math.Abs(g-w)/base > tol {
				*soft = append(*soft, fmt.Sprintf("%s: %.4g → %.4g (%.0f%% drift)", path, w, g, math.Abs(g-w)/base*100))
			}
			return
		}
		if g != w {
			*hard = append(*hard, fmt.Sprintf("%s: %v → %v", path, w, g))
		}
	default:
		if !jsonEqual(want, got) {
			*hard = append(*hard, fmt.Sprintf("%s: %v → %v", path, want, got))
		}
	}
}

func jsonEqual(a, b interface{}) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return string(ja) == string(jb)
}
