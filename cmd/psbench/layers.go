package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"privacyscope"
	"privacyscope/internal/batch"
	"privacyscope/internal/core"
	"privacyscope/internal/diskcache"
	"privacyscope/internal/edl"
	"privacyscope/internal/ir"
	"privacyscope/internal/minic"
	"privacyscope/internal/obs"
	"privacyscope/internal/solver"
	"privacyscope/internal/symexec"
)

// tracing is a traced run's recorders: a Metrics observer for the counters
// and span totals the program emits, and one Tracer per op for span
// instances — the program's own spans plus the benchmark's spans around
// the op. The daemon traces its analyses itself; those span trees are
// fetched from its flight recorder and join their request's op. Each op's
// spans are folded into the layer aggregates as the op ends, and only the
// first traceKeep spans are kept for the Chrome trace, so memory stays
// bounded however many ops the run makes.
type tracing struct {
	start   time.Time
	metrics *obs.Metrics

	mu    sync.Mutex
	self  map[string]int64 // self time per span name, µs
	units struct {
		coldSum, warmSum float64 // batch/unit µs by cache outcome
		coldN, warmN     int
		busy, wall       float64 // Σ batch/unit and Σ batch µs
		lanes            map[int]bool
	}
	kept []span
}

// traceKeep bounds the spans written to the Chrome trace.
const traceKeep = 100_000

func newTracing() *tracing {
	t := &tracing{start: time.Now(), metrics: obs.NewMetrics(), self: map[string]int64{}}
	t.units.lanes = map[int]bool{}
	return t
}

// opTrace records one op's spans on a tracer of its own.
type opTrace struct {
	t      *tracing
	tracer *obs.Tracer
	at     int64 // the tracer's start on the run's timeline, µs
}

func (t *tracing) begin() *opTrace {
	return &opTrace{t: t, at: time.Since(t.start).Microseconds(), tracer: obs.NewTracer()}
}

// observer is what the op's program calls get: the run's Metrics and the
// op's Tracer.
func (o *opTrace) observer() obs.Observer { return obs.Multi(o.t.metrics, o.tracer) }

// end folds the op's spans, plus extra spans already on the run's
// timeline, into the run's aggregates.
func (o *opTrace) end(extra ...span) {
	spans := append(flatten(o.tracer.Snapshot().Spans, "", o.at, -1), extra...)
	t := o.t
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, us := range selfTimes(spans) {
		t.self[name] += us
	}
	for _, s := range spans {
		switch s.name {
		case "batch/unit":
			t.units.busy += float64(s.dur)
			t.units.lanes[s.lane] = true
			if s.field("cache") == "hit" {
				t.units.warmSum += float64(s.dur)
				t.units.warmN++
			} else {
				t.units.coldSum += float64(s.dur)
				t.units.coldN++
			}
		case "batch":
			t.units.wall += float64(s.dur)
		}
	}
	if room := traceKeep - len(t.kept); room > 0 {
		t.kept = append(t.kept, spans[:min(room, len(spans))]...)
	}
}

// span is one completed span, in microseconds from the traced run's start.
type span struct {
	name       string // full slash path, e.g. "check/explicit"
	lane       int
	start, dur int64
	fields     []obs.Field
}

func (s span) field(key string) string {
	for _, f := range s.fields {
		if f.Key == key {
			return f.Value
		}
	}
	return ""
}

// flatten lists a span tree with full slash-path names, shifted by offset;
// lane ≥ 0 overrides the recorded lanes.
func flatten(nodes []*obs.TraceSpan, parent string, offset int64, lane int) []span {
	var out []span
	for _, n := range nodes {
		name := n.Name
		if parent != "" {
			name = parent + "/" + n.Name
		}
		l := n.Lane
		if lane >= 0 {
			l = lane
		}
		out = append(out, span{name: name, lane: l, start: n.StartUs + offset, dur: n.DurUs, fields: n.Fields})
		out = append(out, flatten(n.Spans, name, offset, lane)...)
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of it
// covered by spans nested inside it on the same lane. Nesting is by time,
// not by recorded parent: the program starts most of its spans as roots
// (witness replay inside a detector, parse inside a benchmark op), and
// every lane runs one thing at a time.
func selfTimes(spans []span) map[string]int64 {
	byLane := map[int][]span{}
	for _, s := range spans {
		byLane[s.lane] = append(byLane[s.lane], s)
	}
	self := map[string]int64{}
	for _, ls := range byLane {
		sort.Slice(ls, func(i, j int) bool {
			if ls[i].start != ls[j].start {
				return ls[i].start < ls[j].start
			}
			return ls[i].dur > ls[j].dur
		})
		left := make([]int64, len(ls))
		var stack []int
		for i, s := range ls {
			left[i] = s.dur
			for len(stack) > 0 && s.start >= ls[stack[len(stack)-1]].start+ls[stack[len(stack)-1]].dur {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				left[p] -= min(s.start+s.dur, ls[p].start+ls[p].dur) - s.start
			}
			stack = append(stack, i)
		}
		for i, s := range ls {
			self[s.name] += left[i]
		}
	}
	return self
}

// writeChrome writes spans in Chrome trace-event format (load the file in
// https://ui.perfetto.dev or chrome://tracing).
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  int64          `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{}
	lanes := map[int]bool{}
	for _, s := range spans {
		var args map[string]any
		if len(s.fields) > 0 {
			args = map[string]any{}
			for _, f := range s.fields {
				args[f.Key] = f.Value
			}
		}
		events = append(events, event{Name: s.name, Ph: "X", Ts: s.start, Dur: max(s.dur, 1), Pid: 1, Tid: s.lane, Args: args})
		lanes[s.lane] = true
	}
	for l := range lanes {
		name := "psbench"
		if l > 0 {
			name = fmt.Sprintf("lane %d", l)
		}
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: l, Args: map[string]any{"name": name}})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probes times layers that have a public entry but no span of their own,
// from outside, over the workload's distinct modules.
type probes struct {
	irLowerMs     float64 // ir.LowerMiniC per module
	solverCheckUs float64 // solver.Check per path-condition prefix
	encodeUs      float64 // NewEnvelope + json.Marshal per module
	envBytes      float64 // encoded envelope size
	decodeUs      float64 // json.Unmarshal per envelope
	discoverMs    float64 // batch.Discover over the modules as a tree
	keyUs         float64 // batch.UnitKey per unit
	putUs, getUs  float64 // diskcache Put / Get per envelope
}

// maxProbePaths bounds the paths per entry point whose conditions the
// solver probe replays.
const maxProbePaths = 64

func runProbes(mods []module, work string, tr *tracing) (probes, error) {
	var pr probes
	o := tr.begin()
	defer o.end()
	timed := func(name string, f func()) time.Duration {
		sp := o.tracer.StartSpan("psbench/probe/" + name)
		start := time.Now()
		f()
		d := time.Since(start)
		sp.End()
		return d
	}
	payloads := map[string][]byte{}
	var lower, check, encode, decode time.Duration
	checks := 0
	for _, m := range mods {
		file, err := minic.Parse(m.C)
		if err != nil {
			return pr, fmt.Errorf("%s: %w", m.Name, err)
		}
		lower += timed("ir.lower", func() { ir.LowerMiniC(file) })

		d, n, err := solverProbe(m, file, timed)
		if err != nil {
			return pr, fmt.Errorf("%s: %w", m.Name, err)
		}
		check += d
		checks += n

		var opts []privacyscope.Option
		if m.XML != "" {
			opts = append(opts, privacyscope.WithConfigXML([]byte(m.XML)))
		}
		rep, err := privacyscope.AnalyzeEnclave(m.C, m.EDL, opts...)
		if err != nil {
			return pr, fmt.Errorf("%s: %w", m.Name, err)
		}
		var payload []byte
		encode += timed("envelope.encode", func() {
			payload, err = json.Marshal(privacyscope.NewEnvelope(rep, 0, nil))
		})
		if err != nil {
			return pr, err
		}
		var env privacyscope.Envelope
		decode += timed("envelope.decode", func() { err = json.Unmarshal(payload, &env) })
		if err != nil {
			return pr, err
		}
		payloads[m.Name] = payload
		pr.envBytes += float64(len(payload))
	}
	n := float64(len(mods))
	pr.irLowerMs = ms(lower) / n
	pr.solverCheckUs = ratio(float64(check.Microseconds()), float64(checks))
	pr.encodeUs = float64(encode.Microseconds()) / n
	pr.decodeUs = float64(decode.Microseconds()) / n
	pr.envBytes /= n

	tree, cdir := filepath.Join(work, "probe-tree"), filepath.Join(work, "probe-cache")
	defer os.RemoveAll(tree)
	defer os.RemoveAll(cdir)
	for _, m := range mods {
		if err := writeUnit(tree, m); err != nil {
			return pr, err
		}
	}
	var units []batch.Unit
	var err error
	pr.discoverMs = ms(timed("batch.discover", func() { units, err = batch.Discover(tree) }))
	if err != nil {
		return pr, err
	}
	cache, err := diskcache.Open(diskcache.Config{Dir: cdir})
	if err != nil {
		return pr, err
	}
	var key, put, get time.Duration
	keys := make([]string, len(units))
	for i, u := range units {
		key += timed("batch.key", func() { keys[i] = batch.UnitKey(u, u.Rules, privacyscope.AnalysisOptions{}) })
		put += timed("diskcache.put", func() { cache.Put(keys[i], payloads[u.Name]) })
	}
	for _, k := range keys {
		get += timed("diskcache.get", func() {
			if _, ok := cache.Get(k); !ok {
				err = fmt.Errorf("probe cache lost key %s", k)
			}
		})
	}
	if err != nil {
		return pr, err
	}
	nu := float64(len(units))
	pr.keyUs = ratio(float64(key.Microseconds()), nu)
	pr.putUs = ratio(float64(put.Microseconds()), nu)
	pr.getUs = ratio(float64(get.Microseconds()), nu)
	return pr, nil
}

// solverProbe explores each public entry point of a module without a rule
// file and replays solver.Check on every prefix of up to maxProbePaths
// completed path conditions, with a fresh solver per entry point. It
// returns the time inside Check and the number of calls. Without a rule
// file the facade's engine options are the defaults plus the EDL's OCALLs
// as sinks; a rule file also switches detector-driven engine options, so
// those modules are left out rather than configured by a second copy of
// the facade's rules.
func solverProbe(m module, file *minic.File, timed func(string, func()) time.Duration) (time.Duration, int, error) {
	if m.XML != "" {
		return 0, 0, nil
	}
	iface, err := edl.Parse(m.EDL)
	if err != nil {
		return 0, 0, err
	}
	opts := core.DefaultOptions().Engine
	ocalls := map[string]bool{}
	for k, v := range opts.OCallFuncs {
		ocalls[k] = v
	}
	for _, n := range iface.OCallNames() {
		ocalls[n] = true
	}
	opts.OCallFuncs = ocalls
	var total time.Duration
	calls := 0
	for _, sig := range iface.Trusted {
		if !sig.Public {
			continue
		}
		res, err := symexec.New(file, opts).AnalyzeFunction(context.Background(), sig.Name, edl.ParamSpecs(sig, nil))
		if err != nil {
			return 0, 0, err
		}
		sv := solver.New()
		step := max(1, len(res.Paths)/maxProbePaths)
		for i := 0; i < len(res.Paths); i += step {
			pc := solver.True()
			for _, c := range res.Paths[i].PC.Conjuncts() {
				pc = pc.And(c)
				total += timed("solver.check", func() { sv.Check(pc) })
				calls++
			}
		}
	}
	return total, calls, nil
}

// layerMetrics computes the per-layer metrics of a traced run. Layer
// internals (spans, counters, probes) come from the traced half tp;
// what a client observes (op latencies by class, generator lag, the SLO)
// and the runtime's GC figures come from the untraced half ref. An op is
// the workload's op, so a layer's per-op cost is its share of one op.
func layerMetrics(ref, tp *phase, tr *tracing, pr probes) map[string]float64 {
	ops := float64(tp.ops)
	c := func(name string) float64 { return float64(tp.snap.Counters[name]) }
	spanMs := func(name string) float64 { return float64(tp.snap.Spans[name].TotalNanos) / 1e6 }
	perOp := func(v float64) float64 { return ratio(v, ops) }

	selfMs := func(name string) float64 { return float64(tr.self[name]) / 1e3 }
	var packsMs float64
	for _, d := range privacyscope.DetectorNames() {
		if !slices.Contains([]string{"explicit", "implicit", "timing"}, d) {
			packsMs += selfMs("check/" + d)
		}
	}

	// Batch runs: pool occupancy.
	u := tr.units
	idle := 0.0
	if u.wall > 0 {
		idle = 1 - u.busy/(float64(len(u.lanes))*u.wall)
	}

	// Daemon: client-observed latencies by cache outcome (from send) and
	// the daemon's own counters, over the untraced half.
	rc := func(name string) float64 { return float64(ref.snap.Counters[name]) }
	analyze := ref.snap.Spans["server/analyze"]
	analyzeMs := ratio(float64(analyze.TotalNanos)/1e6, float64(analyze.Count))
	executed := msAll(ref.class["executed"])
	waitMs := 0.0
	if len(executed) > 0 {
		waitMs = mean(executed) - analyzeMs
	}
	hits, misses := rc("server.cache.hits"), rc("server.cache.misses")
	shared := rc("server.singleflight.shared")

	intern := tp.snap.Dists["intern.size"]
	return map[string]float64{
		"parse.ms_per_op":                  perOp(spanMs("parse")),
		"parse.functions_per_op":           perOp(c("parse.functions")),
		"ir.lower_ms_per_op":               pr.irLowerMs,
		"symexec.ms_per_op":                perOp(spanMs("check/symexec")),
		"symexec.states_per_op":            perOp(c("symexec.states")),
		"symexec.forks_per_op":             perOp(c("symexec.forks")),
		"symexec.steps_per_op":             perOp(c("symexec.steps")),
		"symexec.paths_per_op":             perOp(c("symexec.paths.completed")),
		"symexec.paths.pruned_per_op":      perOp(c("symexec.paths.pruned")),
		"symexec.states_per_ms":            ratio(c("symexec.states"), spanMs("check/symexec")),
		"solver.queries_per_op":            perOp(c("solver.queries")),
		"solver.cache.hit_ratio":           ratio(c("solver.cache.hits"), c("solver.cache.hits")+c("solver.cache.misses")),
		"solver.unsat_ratio":               ratio(c("solver.unsat"), c("solver.queries")),
		"solver.check_us":                  pr.solverCheckUs,
		"intern.hit_ratio":                 ratio(c("intern.hits"), c("intern.hits")+c("intern.misses")),
		"intern.size_mean":                 ratio(float64(intern.Sum), float64(intern.Count)),
		"summary.build_ms_per_op":          perOp(spanMs("summary/build")),
		"summary.applied_per_op":           perOp(c("summary.applied")),
		"summary.havocs_per_op":            perOp(c("summary.havocs")),
		"detect.explicit.self_ms_per_op":   perOp(selfMs("check/explicit")),
		"detect.implicit.self_ms_per_op":   perOp(selfMs("check/implicit")),
		"detect.packs.ms_per_op":           perOp(packsMs),
		"witness.ms_per_op":                perOp(spanMs("check/witness")),
		"witness.replays_per_op":           perOp(c("core.witness.replays")),
		"witness.verified_ratio":           ratio(c("core.witness.verified"), c("core.witness.replays")),
		"envelope.encode_us_per_op":        pr.encodeUs,
		"envelope.bytes_per_op":            pr.envBytes,
		"envelope.decode_us_per_op":        pr.decodeUs,
		"batch.discover_ms":                pr.discoverMs,
		"batch.key_us_per_unit":            pr.keyUs,
		"batch.unit_ms.cold":               ratio(u.coldSum/1e3, float64(u.coldN)),
		"batch.unit_ms.warm":               ratio(u.warmSum/1e3, float64(u.warmN)),
		"batch.pool_idle_share":            idle,
		"batch.cold_run_ms":                median(msAll(ref.class["cold"])),
		"batch.warm_run_ms":                median(msAll(ref.class["warm"])),
		"batch.modified_run_ms":            median(msAll(ref.class["modified"])),
		"diskcache.get_us":                 pr.getUs,
		"diskcache.put_us":                 pr.putUs,
		"diskcache.hit_ratio":              ratio(c("diskcache.hits"), c("diskcache.hits")+c("diskcache.misses")),
		"diskcache.puts_per_run":           perOp(c("diskcache.puts")),
		"server.cached_ms_p50":             median(msAll(ref.class["hit"])),
		"server.executed_ms_p50":           median(executed),
		"server.analyze_ms_per_job":        analyzeMs,
		"server.wait_ms_per_job":           waitMs,
		"server.cache.hit_ratio":           ratio(hits, hits+misses),
		"server.cache.evictions_per_s":     ratio(rc("server.cache.evictions"), ref.wall.Seconds()),
		"server.singleflight.shared_ratio": ratio(shared, shared+rc("server.analyses.executed")),
		"server.queue.rejected":            rc("server.queue.rejected"),
		"slo_miss_ratio":                   ratio(float64(ref.sloMisses), float64(ref.ops)),
		"runtime.gc_cycles_per_op":         ratio(float64(ref.gcCycles), float64(ref.ops)),
		"runtime.gc_pause_ms_per_s":        ratio(ms(ref.gcPause), ref.wall.Seconds()),
		"loadgen.lag_ms_p99":               percentile(msAll(ref.lag), 99),
		"loadgen.samples":                  float64(ref.ops),
		"trace_overhead":                   1 - ratio(tp.opsPerSec(), ref.opsPerSec()),
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
