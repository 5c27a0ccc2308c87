package batch

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"privacyscope"
	"privacyscope/internal/diskcache"
	"privacyscope/internal/obs"
)

// surface tags batch entries in the cache key. The privacyscoped daemon
// shares the Key layout but stores HTTP results (status + body), not bare
// envelopes; the tag keeps the two entry formats from colliding when they
// share a cache directory.
const surface = "batch"

// Config configures a project run.
type Config struct {
	// Jobs bounds how many units analyze concurrently (≤0: GOMAXPROCS,
	// capped at 8 — module analyses are CPU-bound).
	Jobs int
	// Cache is the persistent result cache; nil disables caching.
	Cache *diskcache.Cache
	// Options are the engine knobs applied to every unit; they
	// participate in each unit's cache key. DeadlineMs bounds each
	// unit's wall clock (fail-soft).
	Options privacyscope.AnalysisOptions
	// DefaultRules is the §V-C rule file applied to units that have no
	// sibling rule file of their own (the CLI's -config in batch mode).
	DefaultRules string
	// Observer receives batch.* counters and the engine telemetry of
	// every non-cached unit (nil: no-op). Must be safe for concurrent
	// use when Jobs > 1 (obs.Metrics is).
	Observer obs.Observer
	// Tracer, when set, records the project timeline: each pool worker
	// gets its own lane (worker 1..N), every unit a span with cache-tier
	// and verdict annotations, and cache-hit/miss markers per unit — the
	// -trace-out view of pool occupancy and stragglers.
	Tracer *obs.Tracer
	// Exec, when non-nil, is the remote execution path: runUnit hands the
	// unit to it instead of the local engine (the coordinator's
	// fleet-dispatch hook, internal/coord). The executor owns cache
	// consultation — in a fleet, each worker's disk tier is the cache and
	// routing decides which tier is warm — while the pool, the span
	// plumbing, panic isolation and the deterministic report stay here.
	Exec ExecFunc
}

// ExecFunc resolves one unit remotely: rules is the unit's effective rule
// file, ob the pool worker's observer (lane-aware when tracing). It must
// return an explicit UnitResult for every call — an executor that cannot
// reach its backend reports the failure in UnitResult.Err, keeping the
// unit's slot in the report.
type ExecFunc func(ctx context.Context, u Unit, rules string, ob obs.Observer) UnitResult

func (c Config) jobs() int {
	if c.Jobs > 0 {
		return c.Jobs
	}
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// UnitResult is one unit's outcome.
type UnitResult struct {
	Unit Unit
	// Envelope is the analysis result; nil when Err is set.
	Envelope *privacyscope.Envelope
	// Cached reports a disk-cache hit (Envelope restored, engine not
	// run).
	Cached bool
	// Err is the module-level failure (unparseable source or EDL, bad
	// rule file, no public ECALLs); per-function failures live inside
	// the envelope instead, per the fail-soft contract.
	Err string
}

// Verdict maps the unit onto the four-valued verdict: a module-level error
// is VerdictError; otherwise the envelope's aggregate.
func (r UnitResult) Verdict() privacyscope.Verdict {
	if r.Err != "" || r.Envelope == nil {
		return privacyscope.VerdictError
	}
	v, _ := privacyscope.ParseVerdict(r.Envelope.Verdict)
	return v
}

// ProjectReport merges the per-unit results of one batch run.
type ProjectReport struct {
	// Root is the discovery root the run was launched on.
	Root string
	// Units holds one result per discovered unit, in Unit.Name order —
	// deterministic regardless of Config.Jobs.
	Units []UnitResult
	// Elapsed is the whole-run wall clock.
	Elapsed time.Duration
}

// rules resolves the effective rule file for a unit.
func (c Config) rules(u Unit) string {
	if u.Rules != "" {
		return u.Rules
	}
	return c.DefaultRules
}

// UnitKey is the unit's disk-cache address: engine fingerprint, surface
// tag, sources, effective rules, and the canonical options JSON. Any
// change to any of them — including a bumped EngineVersion — changes the
// key, which is the cache's entire invalidation story.
func UnitKey(u Unit, rules string, opts privacyscope.AnalysisOptions) string {
	return diskcache.Key(privacyscope.Fingerprint(),
		surface, u.Source, u.EDL, rules, opts.KeyJSON())
}

// Run analyzes every unit and merges the results. The run is fail-soft at
// every level: a unit that fails to parse keeps its slot as an error
// result, a panicking unit is isolated, ctx cancellation (SIGINT, -timeout)
// degrades the remaining units to partial coverage instead of aborting, and
// cache problems of any kind degrade to recomputes. Run itself never
// returns an error — the project report is the error report.
func Run(ctx context.Context, root string, units []Unit, cfg Config) *ProjectReport {
	if ctx == nil {
		ctx = context.Background()
	}
	ob := obs.Or(cfg.Observer)
	if cfg.Tracer != nil {
		ob = obs.Multi(ob, cfg.Tracer)
	}
	start := time.Now()
	span := ob.StartSpan("batch")
	span.Annotate(obs.F("root", root), obs.F("units", fmt.Sprint(len(units))))
	defer span.End()
	ob.Add("batch.units", int64(len(units)))

	rep := &ProjectReport{Root: root, Units: make([]UnitResult, len(units))}
	// A fixed pool of workers pulling indices — rather than a
	// goroutine-per-unit semaphore — so each worker is a stable identity
	// the tracer can assign a timeline lane to.
	nw := cfg.jobs()
	if nw > len(units) && len(units) > 0 {
		nw = len(units)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wob := obs.Or(cfg.Observer)
		if cfg.Tracer != nil {
			wob = obs.Multi(wob, cfg.Tracer.Lane(w+1, fmt.Sprintf("worker %d", w+1)))
		}
		wg.Add(1)
		go func(wob obs.Observer) {
			defer wg.Done()
			for i := range idx {
				rep.Units[i] = runUnit(ctx, units[i], cfg, wob)
			}
		}(wob)
	}
	for i := range units {
		idx <- i
	}
	close(idx)
	wg.Wait()
	rep.Elapsed = time.Since(start)
	return rep
}

// runUnit resolves one unit through the cache or the engine.
func runUnit(ctx context.Context, u Unit, cfg Config, ob obs.Observer) (res UnitResult) {
	res.Unit = u
	sp := ob.StartSpan("batch/unit")
	sp.Annotate(obs.F("unit", u.Name))
	defer func() {
		v := res.Verdict().String()
		sp.Annotate(obs.F("verdict", v))
		ob.Event("batch.unit.done", obs.F("unit", u.Name), obs.F("verdict", v))
		sp.End()
	}()
	// Panic isolation mirrors the facade's per-ECALL guard one level up:
	// a crashing unit (pathological input tripping an engine bug before
	// the per-function guard arms) must not take down the project run.
	defer func() {
		if p := recover(); p != nil {
			ob.Add("batch.units.panics", 1)
			ob.Event("batch.panic",
				obs.F("unit", u.Name), obs.F("panic", fmt.Sprint(p)))
			res.Envelope = nil
			res.Err = fmt.Sprintf("panic during analysis: %v", p)
		}
	}()

	rules := cfg.rules(u)
	if cfg.Exec != nil {
		res = cfg.Exec(ctx, u, rules, ob)
		res.Unit = u
		return res
	}
	key := UnitKey(u, rules, cfg.Options)
	if payload, ok := cfg.Cache.Get(key); ok {
		var env privacyscope.Envelope
		if err := json.Unmarshal(payload, &env); err == nil && env.Engine == privacyscope.Fingerprint() {
			ob.Add("batch.units.cached", 1)
			sp.Annotate(obs.F("cache", "hit"))
			ob.Event("batch.cache.hit", obs.F("unit", u.Name))
			res.Envelope = &env
			res.Cached = true
			return res
		}
		// The frame checksum passed but the envelope does not decode (or
		// names a different engine): treat like corruption — recompute.
		ob.Add("batch.units.undecodable", 1)
		sp.Annotate(obs.F("cache", "undecodable"))
	} else if cfg.Cache != nil {
		sp.Annotate(obs.F("cache", "miss"))
	}
	if cfg.Cache != nil {
		ob.Event("batch.cache.miss", obs.F("unit", u.Name))
	}

	opts := append(cfg.Options.FacadeOptions(), privacyscope.WithObserver(ob))
	if rules != "" {
		opts = append(opts, privacyscope.WithConfigXML([]byte(rules)))
	}
	uctx := ctx
	if cfg.Options.DeadlineMs > 0 {
		var cancel context.CancelFunc
		uctx, cancel = context.WithTimeout(ctx, time.Duration(cfg.Options.DeadlineMs)*time.Millisecond)
		defer cancel()
	}
	start := time.Now()
	enclave, err := privacyscope.AnalyzeEnclaveContext(uctx, u.Source, u.EDL, opts...)
	if err != nil {
		ob.Add("batch.units.errors", 1)
		res.Err = err.Error()
		return res
	}
	ob.Add("batch.units.analyzed", 1)
	env := privacyscope.NewEnvelope(enclave, time.Since(start), nil)
	res.Envelope = &env
	// A cancelled unit would explore further on a rerun without the
	// cancellation — never persist it (the daemon's rule, applied here).
	if !env.Cancelled() {
		if payload, err := json.Marshal(env); err == nil {
			cfg.Cache.Put(key, payload)
		}
	}
	return res
}
