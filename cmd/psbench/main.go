// Command psbench is PrivacyScope's production-path benchmark. It drives
// the entry points users run — the `privacyscope -json` facade path, the
// incremental `privacyscope -dir -cache-dir` batch driver, and the
// privacyscoped HTTP daemon — with default options on seeded workloads,
// checks every verdict against testdata/expected.json, and prints one JSON
// result line.
//
// Usage:
//
//	psbench -workload NAME -seed N -seconds S -trace 0|1 [-root DIR] [-out DIR]
//	psbench -list
//	psbench -spread < results.jsonl
//
// With -trace 0 the run reports the end-to-end metrics; with -trace 1 it
// spends half its time untraced (the reference for trace_overhead and the
// client-observed metrics) and half traced, reports the per-layer metrics,
// and writes OUT/trace-NAME.json in Chrome trace-event format. -spread reads
// result lines and prints each metric's median and relative quartile
// spread. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"privacyscope/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "psbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("psbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (see -list)")
		seed    = fs.Uint64("seed", 1, "input seed: the same seed generates the same inputs")
		seconds = fs.Float64("seconds", 30, "measured time per run, in seconds")
		trace   = fs.Int("trace", 0, "1: report per-layer metrics from a traced run and write a Chrome trace")
		root    = fs.String("root", ".", "repository root (corpus sources are read from ROOT/examples)")
		out     = fs.String("out", ".bench_build", "directory for scratch files and trace output")
		list    = fs.Bool("list", false, "print the workload and metric registry and exit")
		spread  = fs.Bool("spread", false, "read result lines on stdin and print each metric's median and relative IQR")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *list:
		printRegistry(stdout)
		return nil
	case *spread:
		return printSpread(stdin, stdout)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (see -list)", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	e := &env{
		root: *root,
		seed: *seed,
		work: filepath.Join(*out, "work", fmt.Sprintf("%s-%d", w.Name, os.Getpid())),
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(e.work)
	res, err := runWorkload(w, e, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out, stderr)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// env is what a workload's set-up gets: where the corpus lives, the seed,
// and a private scratch directory.
type env struct {
	root string
	seed uint64
	work string
}

// runner is one workload's set-up state: its inputs and the resources they
// run against.
type runner interface {
	// warmup runs one untimed pass over the inputs.
	warmup() *phase
	// measure runs ops for d — closed loops finish the pass in progress, so
	// the input mix is exact — recording layer telemetry into tr when tr
	// is non-nil.
	measure(d time.Duration, tr *tracing) *phase
	// modules lists the distinct modules the layer probes run over.
	modules() []module
	close()
}

var setups = map[string]func(*env) (runner, error){
	"enclave-corpus":    setupCorpus,
	"path-explosion":    setupExplosion,
	"batch-incremental": setupBatch,
	"daemon-mix":        setupDaemon,
}

// An untraced run alternates set-ups and measured slices: it sets the
// workload up setupRuns times and measures 1/setupRuns of its time on each
// set-up before closing it. The set-ups are thus spread over the whole run,
// as the ops are, and setup_s, their median, is no more exposed to one slow
// stretch of the host than ops_per_s is.
const setupRuns = 10

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runWorkload(w workloadDef, e *env, d time.Duration, traced bool, out string, stderr io.Writer) (*result, error) {
	// A set-up is everything before a measured loop: generating the
	// inputs, creating the resources they run against (tree, cache
	// directory, daemon, listener) and one untimed warm-up pass, so work
	// a change moves out of the loop into first use still shows.
	var setupTimes []float64
	var phases []*phase
	setUp := func() (runner, error) {
		start := time.Now()
		r, err := setups[w.Name](e)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
		}
		phases = append(phases, r.warmup())
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		return r, nil
	}

	var values map[string]float64
	var defs []metricDef
	if !traced {
		ref := newPhase()
		for i := 0; i < setupRuns; i++ {
			r, err := setUp()
			if err != nil {
				return nil, err
			}
			p := measured(r, d/setupRuns, nil)
			r.close()
			phases = append(phases, p)
			ref.add(p)
		}
		rss := peakRSSMB()
		defs = endToEnd
		values = map[string]float64{
			"setup_s":         median(setupTimes),
			"ops_per_s":       ref.opsPerSec(),
			"latency_p50_ms":  percentile(msAll(ref.lat), 50),
			"latency_tail_ms": percentile(msAll(ref.lat), w.tailPct()),
			"alloc_mb_per_op": ratio(float64(ref.allocBytes)/1e6, float64(ref.ops)),
			"peak_rss_mb":     rss,
		}
		reportValidity(stderr, w, ref)
	} else {
		r, err := setUp()
		if err != nil {
			return nil, err
		}
		defer r.close()
		ref := measured(r, d/2, nil)
		tr := newTracing()
		pr, err := runProbes(r.modules(), e.work, tr)
		if err != nil {
			return nil, fmt.Errorf("%s probes: %w", w.Name, err)
		}
		tp := measured(r, d/2, tr)
		phases = append(phases, ref, tp)
		defs = perLayer
		values = layerMetrics(ref, tp, tr, pr)
		reportValidity(stderr, w, ref)
		path := filepath.Join(out, "trace-"+w.Name+".json")
		if err := writeChrome(path, tr.kept); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "psbench: wrote %s (%d spans)\n", path, len(tr.kept))
	}

	res := &result{Metrics: map[string]metricValue{}}
	for _, p := range phases {
		res.Attempted += p.ops
		res.Failed += p.failed
		for _, msg := range p.errs {
			fmt.Fprintln(stderr, "psbench: failed op:", msg)
		}
	}
	res.Correct = res.Failed == 0
	for _, m := range defs {
		res.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	return res, nil
}

// measured runs one measured phase and adds the runtime's allocation and
// GC deltas to it.
func measured(r runner, d time.Duration, tr *tracing) *phase {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := r.measure(d, tr)
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return p
}

func reportValidity(stderr io.Writer, w workloadDef, ref *phase) {
	lag := percentile(msAll(ref.lag), 99)
	if why := validity(w, ref.ops, ref.wall, lag); why != "" {
		fmt.Fprintf(stderr, "psbench: INVALID run, do not score it: %s\n", why)
		return
	}
	fmt.Fprintf(stderr, "psbench: valid run: %d ops in %.1fs, load generator lag p99 %.3f ms\n", ref.ops, ref.wall.Seconds(), lag)
}

// phase is what one loop over a workload saw.
type phase struct {
	ops, failed int
	errs        []string // the first few failure messages
	// lat is each op's latency; for the open loop it is timed from the
	// request's due time.
	lat []time.Duration
	// lag is how late the load generator started each op: after the
	// previous op's bookkeeping (closed loops) or after its due time
	// (open loop).
	lag []time.Duration
	// class holds op latencies by outcome: run class for batch runs, cache
	// outcome (timed from send) for daemon requests.
	class map[string][]time.Duration
	// sloMisses counts failed or over-SLO requests (open loop only).
	sloMisses int
	wall      time.Duration
	// busy is what ops_per_s divides by: the time spent inside ops for a
	// closed loop, so the client's own set-up and verdict checks between
	// ops do not count, and the wall time for the open loop.
	busy time.Duration
	// snap is the layer telemetry over the phase: the traced run's
	// observer, or the daemon's own metrics (which it always keeps).
	snap obs.Snapshot

	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func newPhase() *phase { return &phase{class: map[string][]time.Duration{}} }

// add appends q's ops and sums its times, as if q had run right after p.
// It leaves snap alone.
func (p *phase) add(q *phase) {
	p.ops += q.ops
	p.failed += q.failed
	p.errs = append(p.errs, q.errs...)
	p.lat = append(p.lat, q.lat...)
	p.lag = append(p.lag, q.lag...)
	for k, v := range q.class {
		p.class[k] = append(p.class[k], v...)
	}
	p.sloMisses += q.sloMisses
	p.wall += q.wall
	p.busy += q.busy
	p.allocBytes += q.allocBytes
	p.gcCycles += q.gcCycles
	p.gcPause += q.gcPause
}

func (p *phase) record(lat time.Duration, class string, err error) {
	p.ops++
	p.lat = append(p.lat, lat)
	if class != "" {
		p.class[class] = append(p.class[class], lat)
	}
	if err != nil {
		p.fail(err)
	}
}

func (p *phase) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

func (p *phase) opsPerSec() float64 { return ratio(float64(p.ops), p.busy.Seconds()) }

// closedLoop runs whole passes of n ops until d has elapsed (at least one
// pass), so every op runs equally often. op returns its own latency, which
// excludes the verdict check it does afterwards.
func closedLoop(d time.Duration, n int, op func(i int) (time.Duration, string, error)) *phase {
	p := newPhase()
	start := time.Now()
	prevEnd := start
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		for i := 0; i < n; i++ {
			p.lag = append(p.lag, time.Since(prevEnd))
			lat, class, err := op(i)
			prevEnd = time.Now()
			p.record(lat, class, err)
			p.busy += lat
		}
	}
	p.wall = time.Since(start)
	return p
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

func printRegistry(w io.Writer) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "workload   %-18s p%g tail  %s\n", wl.Name, wl.tailPct(), wl.Why)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "end_to_end %-32s %-6s %s\n", m.Name, m.Unit, m.Better)
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "per_layer  %-32s %-6s %s\n", m.Name, m.Unit, m.Better)
	}
}

// printSpread summarizes result lines: for each metric, the sample count,
// median, quartiles and the quartile spread as a share of the median —
// the numbers the benchmark's bounds are set against.
func printSpread(in io.Reader, out io.Writer) error {
	vals := map[string][]float64{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r result
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Metrics == nil {
			continue
		}
		for k, v := range r.Metrics {
			vals[k] = append(vals[k], v.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-32s %3s %12s %12s %12s %8s\n", "metric", "n", "median", "q1", "q3", "iqr/med")
	for _, k := range names {
		xs := vals[k]
		if len(xs) < 2 {
			fmt.Fprintf(out, "%-32s %3d %12.6g\n", k, len(xs), xs[0])
			continue
		}
		q1, q2, q3 := quartiles(xs)
		fmt.Fprintf(out, "%-32s %3d %12.6g %12.6g %12.6g %8.4f\n", k, len(xs), q2, q1, q3, ratio(q3-q1, q2))
	}
	return nil
}
