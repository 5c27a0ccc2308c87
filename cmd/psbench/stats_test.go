package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	// 1..1000: p99 is the 990th sample, p90 the 900th.
	var seq []float64
	for i := 1000; i >= 1; i-- {
		seq = append(seq, float64(i))
	}
	if got := percentile(seq, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := percentile(seq, 90); got != 900 {
		t.Errorf("p90 of 1..1000 = %g, want 900", got)
	}
	if seq[0] != 1000 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %g, want 0", got)
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4), the
// computation the benchmark's acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
		{[]float64{3.5, 1.25, 9, 2, 7, 7, 100, 0.5, 6, 4.25}, [3]float64{1.8125, 5.125, 7.5}},
		{[]float64{10, 20, 30, 40, 50}, [3]float64{15, 30, 45}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// The tails the workloads report, as README.md documents them.
	want := map[string]float64{"enclave-corpus": 99, "path-explosion": 90, "batch-incremental": 90, "daemon-mix": 90}
	for _, w := range workloads {
		if got := w.tailPct(); got != want[w.Name] {
			t.Errorf("%s: tail p%g, want p%g", w.Name, got, want[w.Name])
		}
	}
}

func TestValidity(t *testing.T) {
	w, _ := workloadByName("enclave-corpus")
	if why := validity(w, 3000, 30*time.Second, 0.1); why != "" {
		t.Errorf("run at the floor marked invalid: %s", why)
	}
	if why := validity(w, 2999, 30*time.Second, 0.1); why == "" {
		t.Error("run below the floor marked valid")
	}
	if why := validity(w, 5000, 30*time.Second, 5.1); why == "" {
		t.Error("run with a late load generator marked valid")
	}
}
