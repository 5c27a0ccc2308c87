package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// returns 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
// The epsilon keeps p·n/100 that is whole in exact arithmetic (99.9 of
// 10000) from rounding up a rank.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// tailPercentile is the highest of the reported percentiles (p99.9, p99,
// p90, p50) that leaves at least ten of n samples beyond it; it is 50 when
// none does.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90} {
		if n-nearestRank(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// quartiles returns the three cut points of xs into four equal groups,
// with the "exclusive" method Python's statistics.quantiles(xs, n=4) uses
// by default, so spreads computed here match the ones the benchmark's
// acceptance check computes. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio is a/b, or 0 when b is 0, so a layer a workload never exercises
// reads 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// validity names why a run must not be scored, or returns "" for a valid
// run: fewer ops than the workload's floor for the measured time, or a
// load generator that ran late (loadgen.lag_ms_p99 above 5 ms).
func validity(w workloadDef, ops int, measured time.Duration, lagP99ms float64) string {
	floor := int(w.FloorPerSec * measured.Seconds())
	switch {
	case ops < floor:
		return fmt.Sprintf("%d ops, below the sample floor of %d", ops, floor)
	case lagP99ms > 5:
		return fmt.Sprintf("load generator lag p99 %.2f ms, above 5 ms", lagP99ms)
	}
	return ""
}
