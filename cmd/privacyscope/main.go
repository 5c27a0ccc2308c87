// Command privacyscope analyzes an SGX enclave module (C source + EDL
// interface file, optionally an XML rule file) for nonreversibility
// violations and prints the Box-1-style report.
//
// Usage:
//
//	privacyscope -c enclave.c -edl enclave.edl [-config rules.xml]
//	             [-fn name] [-detectors list] [-loop-bound n]
//	             [-timeout d] [-no-witness] [-json] [-metrics-json metrics.json]
//	             [-verbose] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	privacyscope -dir project/ [-cache-dir .pscache] [-jobs n] [...]
//	privacyscope -version
//
// With -dir, the CLI runs in batch mode: it discovers every analysis unit
// under the tree (each *.c with a same-basename *.edl sibling, plus an
// optional *.xml rule file), analyzes them across a bounded worker pool,
// and prints one project report with an aggregate verdict. -cache-dir
// enables the persistent result cache, making reruns incremental: only
// changed units re-run the engine. See docs/BATCH.md.
//
// Exit status encodes the module (or project) verdict: 0 when proved
// secure with full coverage, 2 when violations were found, 3 when the
// analysis was inconclusive (a timeout or budget cut left paths unexplored
// without finding a leak — see docs/ROBUSTNESS.md), and 1 on usage errors,
// module-level analysis errors, or a failed (panicked/errored) entry point
// that found nothing.
//
// SIGINT/SIGTERM cancel the analysis context instead of killing the
// process: the run degrades fail-soft, prints the partial-coverage report
// (Inconclusive when nothing was found on the explored paths), flushes
// -metrics-json, and exits with the verdict's code. A second signal
// terminates immediately.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"privacyscope"
	"privacyscope/internal/batch"
	"privacyscope/internal/diskcache"
)

func main() {
	ctx, stop := interruptContext()
	defer stop()
	code, err := run(ctx, os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "privacyscope:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// interruptContext returns a context that the first SIGINT or SIGTERM
// cancels, so the run degrades to a partial-coverage report instead of
// dying mid-write. The cancellation also stops the signal relay at once:
// a second signal gets the default handler and terminates the process,
// even when the analysis is stuck in code that never checks the context.
func interruptContext() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	return ctx, stop
}

func run(ctx context.Context, args []string, out io.Writer) (code int, err error) {
	fs := flag.NewFlagSet("privacyscope", flag.ContinueOnError)
	var (
		cPath      = fs.String("c", "", "enclave C source file (single-module mode)")
		edlPath    = fs.String("edl", "", "EDL interface file (single-module mode)")
		dirRoot    = fs.String("dir", "", "batch mode: analyze every (c, edl[, xml]) unit under this tree")
		cacheDir   = fs.String("cache-dir", "", "batch mode: persistent result-cache directory (reruns only re-analyze changed units)")
		cacheMax   = fs.Int64("cache-max-bytes", diskcache.DefaultMaxBytes, "size cap for -cache-dir; oldest entries evict past it")
		jobs       = fs.Int("jobs", 0, "batch mode: units analyzed concurrently (0 = GOMAXPROCS, capped at 8)")
		configPath = fs.String("config", "", "XML rule file (batch mode: default for units without their own)")
		fnName     = fs.String("fn", "", "analyze only this ECALL (single-module mode)")
		loopBound  = fs.Int("loop-bound", 0, "symbolic loop unrolling bound (0 = default)")
		timeout    = fs.Duration("timeout", 0, "wall-clock budget for the whole run, e.g. 30s (0 = none); expiry degrades coverage instead of failing")
		noWitness  = fs.Bool("no-witness", false, "skip concrete witness replay")
		conserv    = fs.Bool("conservative-externs", false, "treat unmodeled extern results as secrets")
		detectors  = fs.String("detectors", "", "comma-separated detector selection replacing the defaults (explicit,implicit); 'default' and 'all' expand in place, e.g. explicit, default,timing or default,ocall-pointer — see docs/DETECTORS.md")
		asJSON     = fs.Bool("json", false, "emit findings as JSON")
		traceOut   = fs.String("trace-out", "", "record the run and write a Chrome trace-event file (load in chrome://tracing or Perfetto); -json also embeds the span tree")
		metricsOut = fs.String("metrics-json", "", "write a metrics snapshot (counters, spans, dists) to this file")
		verbose    = fs.Bool("verbose", false, "stream structured JSON telemetry events to stderr")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile to this file")
		version    = fs.Bool("version", false, "print build info (engine version, fingerprint) and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if *version {
		fmt.Fprintln(out, privacyscope.Build())
		return 0, nil
	}
	if *dirRoot == "" && (*cPath == "" || *edlPath == "") {
		fs.Usage()
		return 1, fmt.Errorf("either -dir (batch) or both -c and -edl (single module) are required")
	}
	if *dirRoot != "" && (*cPath != "" || *edlPath != "" || *fnName != "") {
		return 1, fmt.Errorf("-dir is exclusive with -c/-edl/-fn")
	}

	aopts := privacyscope.AnalysisOptions{
		LoopBound:           *loopBound,
		NoWitness:           *noWitness,
		ConservativeExterns: *conserv,
	}
	if *detectors != "" {
		aopts.Detectors = strings.Split(*detectors, ",")
	}

	// Telemetry: one Metrics observer serves -json, -metrics-json and
	// -verbose; absent all three the analysis runs with the no-op observer.
	var metrics *privacyscope.Metrics
	if *asJSON || *metricsOut != "" || *verbose {
		var mopts []privacyscope.MetricsOption
		if *verbose {
			mopts = append(mopts, privacyscope.WithEventWriter(os.Stderr))
		}
		metrics = privacyscope.NewMetrics(mopts...)
	}
	// -trace-out adds a per-run Tracer next to the Metrics (obs.Multi); the
	// analysis itself never knows whether it is being traced.
	var tracer *privacyscope.Tracer
	if *traceOut != "" {
		tracer = privacyscope.NewTracer()
	}
	// Flush the trace on every exit path, like -metrics-json below: a run
	// interrupted mid-batch still owes the caller its partial timeline.
	defer func() {
		if tracer == nil {
			return
		}
		if ferr := writeTrace(*traceOut, tracer); ferr != nil && err == nil {
			code, err = 1, ferr
		}
	}()
	// Flush -metrics-json on EVERY exit path from here on — the degraded
	// ones included. A run interrupted by SIGINT mid-batch, or failed by a
	// module-level error, still owes the caller whatever telemetry it
	// gathered; losing the snapshot on the sad paths was a real bug.
	defer func() {
		if *metricsOut == "" || metrics == nil {
			return
		}
		if ferr := writeMetrics(*metricsOut, metrics); ferr != nil && err == nil {
			code, err = 1, ferr
		}
	}()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return 1, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return 1, err
		}
		defer pprof.StopCPUProfile()
	}

	if ctx == nil {
		ctx = context.Background()
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *dirRoot != "" {
		code, err = runBatch(ctx, batchArgs{
			root:     *dirRoot,
			cacheDir: *cacheDir,
			cacheMax: *cacheMax,
			jobs:     *jobs,
			config:   *configPath,
			options:  aopts,
			asJSON:   *asJSON,
			metrics:  metrics,
			tracer:   tracer,
		}, out)
	} else {
		code, err = runSingle(ctx, singleArgs{
			cPath:   *cPath,
			edlPath: *edlPath,
			config:  *configPath,
			fnName:  *fnName,
			options: aopts,
			asJSON:  *asJSON,
			metrics: metrics,
			tracer:  tracer,
		}, out)
	}
	if err != nil {
		return code, err
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return 1, err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return 1, err
		}
		if err := f.Close(); err != nil {
			return 1, err
		}
	}
	return code, nil
}

// writeTrace dumps the recorded timeline as a Chrome trace-event file;
// shared by all exit paths via the defer in run.
func writeTrace(path string, tracer *privacyscope.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics dumps the snapshot; shared by all exit paths via the defer
// in run.
func writeMetrics(path string, metrics *privacyscope.Metrics) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := metrics.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// exitCode maps the aggregate verdict onto the CLI's exit-status contract.
func exitCode(v privacyscope.Verdict) int {
	switch v {
	case privacyscope.VerdictSecure:
		return 0
	case privacyscope.VerdictFindings:
		return 2
	case privacyscope.VerdictError:
		return 1
	default: // VerdictInconclusive
		return 3
	}
}

type singleArgs struct {
	cPath, edlPath, config, fnName string
	options                        privacyscope.AnalysisOptions
	asJSON                         bool
	metrics                        *privacyscope.Metrics
	tracer                         *privacyscope.Tracer
}

func runSingle(ctx context.Context, a singleArgs, out io.Writer) (int, error) {
	cSrc, err := os.ReadFile(a.cPath)
	if err != nil {
		return 1, err
	}
	edlSrc, err := os.ReadFile(a.edlPath)
	if err != nil {
		return 1, err
	}
	opts := a.options.FacadeOptions()
	if a.config != "" {
		cfg, err := os.ReadFile(a.config)
		if err != nil {
			return 1, err
		}
		opts = append(opts, privacyscope.WithConfigXML(cfg))
	}
	var obList []privacyscope.Observer
	if a.metrics != nil {
		obList = append(obList, a.metrics)
	}
	if a.tracer != nil {
		obList = append(obList, a.tracer)
	}
	if len(obList) > 0 {
		opts = append(opts, privacyscope.WithObserver(privacyscope.MultiObserver(obList...)))
	}
	start := time.Now()
	rep, err := privacyscope.AnalyzeEnclaveContext(ctx, string(cSrc), string(edlSrc), opts...)
	elapsed := time.Since(start)
	if err != nil {
		return 1, err
	}
	if a.fnName != "" {
		var filtered []*privacyscope.Report
		for _, r := range rep.Reports {
			if r.Function == a.fnName {
				filtered = append(filtered, r)
			}
		}
		if len(filtered) == 0 {
			return 1, fmt.Errorf("no public ECALL named %s", a.fnName)
		}
		rep.Reports = filtered
	}

	if a.asJSON {
		env := privacyscope.NewEnvelope(rep, elapsed, a.metrics)
		if a.tracer != nil {
			env.TraceID = a.tracer.TraceID()
			env.Trace = a.tracer.Snapshot()
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(env); err != nil {
			return 1, err
		}
	} else {
		fmt.Fprint(out, rep.Render())
	}
	return exitCode(rep.Verdict()), nil
}

type batchArgs struct {
	root, cacheDir, config string
	cacheMax               int64
	jobs                   int
	options                privacyscope.AnalysisOptions
	asJSON                 bool
	metrics                *privacyscope.Metrics
	tracer                 *privacyscope.Tracer
}

func runBatch(ctx context.Context, a batchArgs, out io.Writer) (int, error) {
	units, err := batch.Discover(a.root)
	if err != nil {
		return 1, err
	}
	if len(units) == 0 {
		return 1, fmt.Errorf("no analysis units under %s (need *.c with a same-basename *.edl)", a.root)
	}
	var defaultRules string
	if a.config != "" {
		rules, err := os.ReadFile(a.config)
		if err != nil {
			return 1, err
		}
		defaultRules = string(rules)
	}
	var cache *diskcache.Cache
	if a.cacheDir != "" {
		var ob privacyscope.Observer
		if a.metrics != nil {
			ob = a.metrics
		}
		cache, err = diskcache.Open(diskcache.Config{
			Dir: a.cacheDir, MaxBytes: a.cacheMax, Observer: ob,
		})
		if err != nil {
			return 1, err
		}
	}
	cfg := batch.Config{
		Jobs:         a.jobs,
		Cache:        cache,
		Options:      a.options,
		DefaultRules: defaultRules,
		Tracer:       a.tracer,
	}
	if a.metrics != nil {
		cfg.Observer = a.metrics
	}
	rep := batch.Run(ctx, a.root, units, cfg)

	if a.asJSON {
		env := rep.Envelope(a.metrics)
		if a.tracer != nil {
			env.TraceID = a.tracer.TraceID()
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(env); err != nil {
			return 1, err
		}
	} else {
		fmt.Fprint(out, rep.Render())
	}
	return exitCode(rep.Verdict()), nil
}
