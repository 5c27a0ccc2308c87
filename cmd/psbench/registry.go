package main

import (
	"fmt"
	"math"
)

// The registry defines every workload and metric BENCHMARK.json at the
// repo root declares, with the same name, unit and direction
// (TestRegistryMatchesBenchmarkJSON pins both directions). Bounds live
// only in BENCHMARK.json.

// daemonRate is R, the daemon-mix arrival rate in requests per second:
// well below half the 2-connection closed-loop capacity of the request
// mix on the 2-vCPU calibration host, whose speed varied up to threefold.
// Latency counts from each request's due time, so it includes the wait
// for a free connection, and that wait grows faster than the host slows:
// in seven interleaved runs the p90's spread across runs was 0.29 of its
// median at R = 1500 and 0.07 at R = 500 (see README.md, "Calibration").
const daemonRate = 500

// daemonSLO is the daemon-mix latency limit on the p99, timed from each
// request's due time.
const daemonSLOms = 50

type workloadDef struct {
	Name string
	Why  string
	// FloorPerSec is the run-validity sample floor, in ops per measured
	// second; a run with fewer ops is invalid.
	FloorPerSec float64
	// MaxTail caps the percentile reported as latency_tail_ms (0: no cap).
	MaxTail float64
}

// tailPct is the percentile reported as latency_tail_ms: the highest one
// with at least ten samples beyond it at the workload's sample floor over
// 30 s, so a valid run always has those ten samples, and at most MaxTail.
func (w workloadDef) tailPct() float64 {
	p := tailPercentile(int(math.Round(w.FloorPerSec * 30)))
	if w.MaxTail > 0 {
		p = min(p, w.MaxTail)
	}
	return p
}

var workloads = []workloadDef{
	{
		Name:        "enclave-corpus",
		Why:         "Table V, case-study, example and leak-pack modules plus 12 seeded small modules via the -json facade path: parse, detectors, encoding and Kmeans witness replay",
		FloorPerSec: 100,
	},
	{
		Name:        "path-explosion",
		Why:         "16 seeded secret-branch ladders, inlined helper chains and symbolic-bound loops via the -json facade path: exploration, solver and interning dominate",
		FloorPerSec: 200.0 / 30,
	},
	{
		Name:        "batch-incremental",
		Why:         fmt.Sprintf("cold, warm and one-unit-modified project runs of a 32-unit tree over a disk cache, cycles %d ms apart: unit keys, diskcache I/O, envelope decoding and pool scheduling", batchThink.Milliseconds()),
		FloorPerSec: 3 * 200.0 / 30,
	},
	{
		Name:        "daemon-mix",
		Why:         fmt.Sprintf("open loop, Poisson at R=%d req/s on 2 keep-alive connections: 75%% hot-set hits, 20%% fresh modules, 5%% duplicate pairs; p99 SLO %d ms from due time", daemonRate, daemonSLOms),
		FloorPerSec: 100,
		// The p99 from due time is set by a few host stalls per run: its
		// quartile spread across runs reached 0.58 of its median on the
		// calibration host, the p90's 0.13. The p99 stays in the per-layer
		// SLO check (slo_miss_ratio).
		MaxTail: 90,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of each surface sees; every workload
// reports all of them from its untraced run. An op is one module analysis
// (enclave-corpus, path-explosion), one project run (batch-incremental) or
// one completed request (daemon-mix).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reads 0 there.
var perLayer = []metricDef{
	{"parse.ms_per_op", "ms", "lower"},
	{"parse.functions_per_op", "count", "lower"},
	{"ir.lower_ms_per_op", "ms", "lower"},
	{"symexec.ms_per_op", "ms", "lower"},
	{"symexec.states_per_op", "count", "lower"},
	{"symexec.forks_per_op", "count", "lower"},
	{"symexec.steps_per_op", "count", "lower"},
	{"symexec.paths_per_op", "count", "lower"},
	{"symexec.paths.pruned_per_op", "count", "higher"},
	{"symexec.states_per_ms", "1/ms", "higher"},
	{"solver.queries_per_op", "count", "lower"},
	{"solver.cache.hit_ratio", "ratio", "higher"},
	{"solver.unsat_ratio", "ratio", "higher"},
	{"solver.check_us", "us", "lower"},
	{"intern.hit_ratio", "ratio", "higher"},
	{"intern.size_mean", "count", "lower"},
	{"summary.build_ms_per_op", "ms", "lower"},
	{"summary.applied_per_op", "count", "higher"},
	{"summary.havocs_per_op", "count", "lower"},
	{"detect.explicit.self_ms_per_op", "ms", "lower"},
	{"detect.implicit.self_ms_per_op", "ms", "lower"},
	{"detect.packs.ms_per_op", "ms", "lower"},
	{"witness.ms_per_op", "ms", "lower"},
	{"witness.replays_per_op", "count", "lower"},
	{"witness.verified_ratio", "ratio", "higher"},
	{"envelope.encode_us_per_op", "us", "lower"},
	{"envelope.bytes_per_op", "B", "lower"},
	{"envelope.decode_us_per_op", "us", "lower"},
	{"batch.discover_ms", "ms", "lower"},
	{"batch.key_us_per_unit", "us", "lower"},
	{"batch.unit_ms.cold", "ms", "lower"},
	{"batch.unit_ms.warm", "ms", "lower"},
	{"batch.pool_idle_share", "ratio", "lower"},
	{"batch.cold_run_ms", "ms", "lower"},
	{"batch.warm_run_ms", "ms", "lower"},
	{"batch.modified_run_ms", "ms", "lower"},
	{"diskcache.get_us", "us", "lower"},
	{"diskcache.put_us", "us", "lower"},
	{"diskcache.hit_ratio", "ratio", "higher"},
	{"diskcache.puts_per_run", "count", "lower"},
	{"server.cached_ms_p50", "ms", "lower"},
	{"server.executed_ms_p50", "ms", "lower"},
	{"server.analyze_ms_per_job", "ms", "lower"},
	{"server.wait_ms_per_job", "ms", "lower"},
	{"server.cache.hit_ratio", "ratio", "higher"},
	{"server.cache.evictions_per_s", "1/s", "lower"},
	{"server.singleflight.shared_ratio", "ratio", "higher"},
	{"server.queue.rejected", "count", "lower"},
	{"slo_miss_ratio", "ratio", "lower"},
	{"runtime.gc_cycles_per_op", "count", "lower"},
	{"runtime.gc_pause_ms_per_s", "ms/s", "lower"},
	{"loadgen.lag_ms_p99", "ms", "lower"},
	{"loadgen.samples", "count", "higher"},
	{"trace_overhead", "ratio", "lower"},
}
