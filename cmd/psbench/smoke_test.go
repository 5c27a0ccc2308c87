package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// mayReadZero are the per-layer metrics a smoke run may read as 0 on every
// workload: no workload repeats a path condition within an entry point, so
// the solver's feasibility cache never hits; summaries are off by default;
// no request is refused and none misses the SLO; the daemon's cache does
// not fill and pairs may not overlap in a 150 ms traced half; and
// trace_overhead is a difference.
var mayReadZero = map[string]bool{
	"solver.cache.hit_ratio":           true,
	"summary.build_ms_per_op":          true,
	"summary.applied_per_op":           true,
	"summary.havocs_per_op":            true,
	"server.queue.rejected":            true,
	"slo_miss_ratio":                   true,
	"server.cache.evictions_per_s":     true,
	"server.singleflight.shared_ratio": true,
	"trace_overhead":                   true,
}

// TestSmokeEveryWorkload runs every workload untraced and traced through
// the code the benchmark runs, briefly, and checks the result line: every
// declared metric present with its unit, no failed op, and a loadable
// Chrome trace from the traced run. Every per-layer metric outside
// mayReadZero must read nonzero on some workload, so a counter or span the
// program renames shows here instead of reading 0.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var mu sync.Mutex
	nonzero := map[string]bool{}
	t.Run("workloads", func(t *testing.T) {
		for _, w := range workloads {
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				layers := smoke(t, w)
				mu.Lock()
				defer mu.Unlock()
				for name, v := range layers {
					if v.Value != 0 {
						nonzero[name] = true
					}
				}
			})
		}
	})
	for _, m := range perLayer {
		if !nonzero[m.Name] && !mayReadZero[m.Name] {
			t.Errorf("per-layer metric %s read 0 on every workload", m.Name)
		}
	}
}

// smoke runs w untraced and traced and returns the traced run's metrics.
func smoke(t *testing.T, w workloadDef) map[string]metricValue {
	var layers map[string]metricValue
	for _, traced := range []bool{false, true} {
		out := t.TempDir()
		e := &env{root: "../..", seed: 3, work: t.TempDir()}
		res, err := runWorkload(w, e, 300*time.Millisecond, traced, out, io.Discard)
		if err != nil {
			t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
		}
		for _, m := range defs {
			v, ok := res.Metrics[m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, v, m.Unit)
			}
		}
		if !traced {
			for _, m := range endToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s: %s = %g, want > 0", w.Name, m.Name, res.Metrics[m.Name].Value)
				}
			}
			continue
		}
		checkChromeTrace(t, filepath.Join(out, "trace-"+w.Name+".json"))
		layers = res.Metrics
	}
	return layers
}

func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	spans := 0
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			spans++
			if ev.Dur <= 0 {
				t.Errorf("%s: span %s has duration %d", path, ev.Name, ev.Dur)
			}
		}
	}
	if spans == 0 {
		t.Errorf("%s: no spans", path)
	}
}

// TestSelfTimeSubtractsNestedSpans pins the self-time rule on a lane:
// nested spans are subtracted from their innermost enclosing span only,
// and other lanes never nest.
func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	got := selfTimes([]span{
		{name: "check/explicit", lane: 0, start: 0, dur: 100},
		{name: "check/witness", lane: 0, start: 10, dur: 30},
		{name: "inner", lane: 0, start: 15, dur: 5},
		{name: "check/witness", lane: 0, start: 50, dur: 20},
		{name: "other", lane: 1, start: 20, dur: 10},
	})
	want := map[string]int64{"check/explicit": 50, "check/witness": 45, "inner": 5, "other": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %d, want %d", k, got[k], v)
		}
	}
}
