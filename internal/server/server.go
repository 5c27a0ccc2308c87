// Package server implements privacyscoped, the analysis-as-a-service
// daemon: an HTTP/JSON front end over the privacyscope facade with a
// bounded job scheduler, a content-addressed result cache, and singleflight
// deduplication of identical in-flight submissions.
//
// Endpoints:
//
//	POST /v1/analyze          submit a module, wait for the result envelope
//	POST /v1/analyze?async=1  202 + job ID immediately; poll the job
//	GET  /v1/jobs/{id}        job status, or the final result when done
//	GET  /healthz             liveness + queue/cache stats (503 once draining)
//	GET  /metrics             Prometheus text exposition of internal/obs
//
// The analysis result is the same envelope the `privacyscope -json` CLI
// emits (privacyscope.Envelope). Fail-soft verdicts map onto statuses:
// secure and findings are both 200 (the analysis succeeded; the verdict is
// in the body), a degraded partial-coverage run is 206, a module whose
// every entry point failed is 500, an unparseable module 422, a full queue
// 429, and a draining daemon 503. See docs/SERVER.md.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"privacyscope"
	"privacyscope/internal/diskcache"
	"privacyscope/internal/obs"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the analysis worker-pool size (≤0: 4). Each worker runs
	// one module analysis at a time, one entry point after another.
	Workers int
	// QueueDepth bounds how many accepted jobs may wait for a worker
	// (<0: 0 — reject whenever all workers are busy). A full queue
	// rejects with 429.
	QueueDepth int
	// CacheEntries bounds the result cache (≤0 disables caching).
	CacheEntries int
	// DefaultDeadline is the per-job wall-clock budget applied when a
	// request does not set deadlineMs. Zero means no default. Expiry
	// degrades the analysis fail-soft (206), it does not kill the job.
	DefaultDeadline time.Duration
	// MaxDeadline caps the per-request deadlineMs (and bounds jobs even
	// when DefaultDeadline is zero, if set): a client cannot hold a
	// worker longer than this. Zero means uncapped.
	MaxDeadline time.Duration
	// MaxSourceBytes bounds the combined request source sizes (≤0: 1 MiB).
	MaxSourceBytes int
	// DiskCache, when non-nil, persists cacheable results below the
	// in-memory LRU (same content-addressed keys), so a daemon restarted
	// on the same directory serves repeats without re-running the
	// engine. Disk failures degrade to cache misses, never to errors.
	DiskCache *diskcache.Cache
	// Metrics receives the daemon's and the engine's telemetry. Nil
	// creates a private Metrics; pass one to share it with other
	// components or to stream events.
	Metrics *obs.Metrics
	// FlightEntries sizes the flight recorder: the ring of recently
	// executed analyses whose traces /debug/traces serves (≤0: 64).
	FlightEntries int
	// SlowThreshold, when positive, flags any executed analysis that takes
	// longer as slow: a server.job.slow event (with trace ID), the
	// server.jobs.slow counter, and the slow bit on its flight-recorder
	// entry.
	SlowThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewMetrics()
	}
	return c
}

// Server is the daemon. Create with New, mount Handler, stop with
// Shutdown.
type Server struct {
	cfg      Config
	metrics  *obs.Metrics
	cache    *resultCache
	flight   *flightGroup
	sched    *scheduler
	jobs     *jobStore
	recorder *flightRecorder
	mux      *http.ServeMux
	engine   string // fingerprint folded into every cache key

	// hookAnalyzeStart, when set (tests only), runs inside the worker
	// just before the engine is invoked — a gate for deterministic
	// concurrency tests.
	hookAnalyzeStart func(key string)
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		metrics:  cfg.Metrics,
		cache:    newResultCache(cfg.CacheEntries, cfg.DiskCache, cfg.Metrics),
		flight:   newFlightGroup(),
		sched:    newScheduler(cfg.Workers, cfg.QueueDepth, cfg.Metrics),
		jobs:     newJobStore(1024),
		recorder: newFlightRecorder(cfg.FlightEntries),
		engine:   privacyscope.Fingerprint(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the observer aggregating daemon and engine telemetry.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// Shutdown drains gracefully: new submissions get 503, in-flight analyses
// are cancelled so they complete fail-soft (their clients receive 206
// partial-coverage envelopes), and queued jobs flush the same way. The wait
// is bounded by ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.sched.Shutdown(ctx)
}

// AnalyzeRequest is the POST /v1/analyze body.
type AnalyzeRequest struct {
	// Lang selects the front end: "minic" (default) or "priml".
	Lang string `json:"lang,omitempty"`
	// Source is the module source (MiniC enclave code, or a PRIML
	// program).
	Source string `json:"source"`
	// EDL is the interface file; required for minic, ignored for priml.
	EDL string `json:"edl,omitempty"`
	// ConfigXML is the optional §V-C rule file.
	ConfigXML string `json:"configXML,omitempty"`
	// Options tunes the engine for this job.
	Options RequestOptions `json:"options,omitempty"`
}

// RequestOptions mirrors the facade's functional options in JSON form:
// the shared privacyscope.AnalysisOptions, so the daemon, the batch driver
// and the cache keys all agree on what an "option" is. Every field
// participates in the cache key.
type RequestOptions = privacyscope.AnalysisOptions

// analysisResult is a finished analysis as the handler writes it: status,
// body, and whether the cache may keep it.
type analysisResult struct {
	status    int
	body      []byte
	verdict   string
	cacheable bool
	// traceID names the execution that produced this result; echoed as a
	// traceparent response header and resolvable at /debug/traces/<id>
	// while the flight recorder retains it. Empty for results that never
	// ran an engine (errors, disk-cache restores).
	traceID string
}

// errorBody renders the error JSON the daemon uses for every non-envelope
// failure.
func errorBody(msg string) []byte {
	b, _ := json.Marshal(map[string]string{"error": msg})
	return b
}

// CacheKey addresses a request by content: everything that determines the
// analysis outcome, engine fingerprint included, hashed field-by-field with
// length framing (diskcache.Key) so no two distinct requests can collide by
// concatenation. The same key addresses both cache tiers — and the
// coordinator (internal/coord) routes by it, which is what makes placement
// cache-aware: a unit always lands on the worker whose disk tier holds its
// key.
func CacheKey(engine string, req *AnalyzeRequest) string {
	return diskcache.Key(engine,
		req.Lang, req.Source, req.EDL, req.ConfigXML, req.Options.KeyJSON())
}

func (s *Server) cacheKey(req *AnalyzeRequest) string {
	return CacheKey(s.engine, req)
}

// Validate rejects malformed requests before they cost a queue slot. It
// also canonicalizes the request (defaulting Lang), so the coordinator and
// the worker compute identical cache keys from the same submission.
func (req *AnalyzeRequest) Validate(maxSource int) error {
	switch req.Lang {
	case "", "minic":
		req.Lang = "minic"
		if req.EDL == "" {
			return fmt.Errorf("minic modules require an edl interface")
		}
	case "priml":
	default:
		return fmt.Errorf("unknown lang %q (want minic or priml)", req.Lang)
	}
	if req.Source == "" {
		return fmt.Errorf("source is required")
	}
	if n := len(req.Source) + len(req.EDL) + len(req.ConfigXML); n > maxSource {
		return fmt.Errorf("request sources total %d bytes, limit %d", n, maxSource)
	}
	return nil
}

// handleAnalyze is POST /v1/analyze: resolve through cache, singleflight
// and the scheduler, synchronously or (with ?async=1) as a polled job.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.metrics.Add("server.requests", 1)
	var req AnalyzeRequest
	body := http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxSourceBytes)+64*1024)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		// An oversized submission is a distinct, retry-with-less condition:
		// 413 with the JSON error envelope, not a generic 400 (and never a
		// hang — MaxBytesReader cuts the read at the limit).
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.metrics.Add("server.requests.toolarge", 1)
			writeResult(w, &analysisResult{
				status: http.StatusRequestEntityTooLarge,
				body:   errorBody(fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)),
			}, "")
			return
		}
		writeResult(w, &analysisResult{status: http.StatusBadRequest, body: errorBody("bad request body: " + err.Error())}, "")
		return
	}
	if err := req.Validate(s.cfg.MaxSourceBytes); err != nil {
		writeResult(w, &analysisResult{status: http.StatusBadRequest, body: errorBody(err.Error())}, "")
		return
	}
	key := s.cacheKey(&req)
	// W3C trace-context ingestion: a valid traceparent pins the trace ID
	// the execution records under (so the client can fetch
	// /debug/traces/<their id> afterwards); anything else and the daemon
	// mints its own. Either way the response echoes the ID.
	traceID, _, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if !ok {
		traceID = obs.NewTraceID()
	}

	if r.URL.Query().Get("async") != "" {
		id, err := s.jobs.Create()
		if err != nil {
			writeResult(w, &analysisResult{status: http.StatusInternalServerError, body: errorBody(err.Error())}, "")
			return
		}
		res, submitErr := s.submitAsync(id, key, traceID, &req)
		if submitErr != nil {
			s.jobs.Drop(id)
			writeResult(w, toResult(submitErr), "")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Location", "/v1/jobs/"+id)
		w.Header().Set("traceparent", obs.FormatTraceparent(traceID, obs.NewSpanID()))
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"jobId": id, "status": res})
		return
	}

	if res, ok := s.cache.Get(key); ok {
		writeResult(w, res, "hit")
		return
	}
	res, err, shared := s.flightDo(key, traceID, &req)
	if err != nil {
		writeResult(w, toResult(err), "")
		return
	}
	hdr := ""
	if shared {
		s.metrics.Add("server.singleflight.shared", 1)
		hdr = "shared"
	}
	writeResult(w, res, hdr)
}

// resolve serves a request from the cache, or joins the in-flight
// identical analysis, or schedules a new one. The bool reports singleflight
// sharing.
func (s *Server) resolve(key, traceID string, req *AnalyzeRequest) (*analysisResult, error, bool) {
	if res, ok := s.cache.Get(key); ok {
		return res, nil, false
	}
	return s.flightDo(key, traceID, req)
}

func (s *Server) flightDo(key, traceID string, req *AnalyzeRequest) (*analysisResult, error, bool) {
	return s.flight.Do(key, func() (*analysisResult, error) {
		// Re-check under the flight lock epoch: a previous leader may have
		// populated the cache between our miss and becoming leader.
		if res, ok := s.cache.Get(key); ok {
			return res, nil
		}
		var res *analysisResult
		t, err := s.sched.Submit(func(ctx context.Context) {
			res = s.runAnalysis(ctx, key, traceID, req)
		})
		if err != nil {
			return nil, err
		}
		<-t.done
		if res.cacheable {
			s.cache.Put(key, res)
		}
		return res, nil
	})
}

// submitAsync schedules the request as a polled job; the returned string
// is the job's immediate status ("done" on a cache hit, else "queued").
func (s *Server) submitAsync(id, key, traceID string, req *AnalyzeRequest) (string, error) {
	if res, ok := s.cache.Get(key); ok {
		s.jobs.Finish(id, res)
		return jobDone, nil
	}
	// The job closure resolves through the same singleflight path as sync
	// requests, but from a goroutine that owns no worker slot: the inner
	// Submit is the one that consumes queue capacity. To preserve the 429
	// contract, probe the scheduler state first instead of queuing a
	// goroutine that would only later discover the queue is full.
	if err := s.sched.Probe(); err != nil {
		return "", err
	}
	s.jobs.Run(id)
	go func() {
		res, err, shared := s.resolve(key, traceID, req)
		if shared {
			s.metrics.Add("server.singleflight.shared", 1)
		}
		if err != nil {
			res = toResult(err)
		}
		s.jobs.Finish(id, res)
	}()
	return jobRunning, nil
}

// runAnalysis executes one scheduled job inside a worker. Every execution
// is traced: a per-job Tracer (under the client's trace ID when a valid
// traceparent came in) runs next to the shared Metrics via obs.Multi, and
// the finished trace lands in the flight recorder.
func (s *Server) runAnalysis(ctx context.Context, key, traceID string, req *AnalyzeRequest) *analysisResult {
	if s.hookAnalyzeStart != nil {
		s.hookAnalyzeStart(key)
	}
	s.metrics.Add("server.analyses.executed", 1)
	tracer := obs.NewTracer(obs.WithTraceID(traceID))
	ob := obs.Multi(s.metrics, tracer)
	span := ob.StartSpan("server/analyze")
	span.Annotate(obs.F("lang", req.Lang))

	start := time.Now()
	var res *analysisResult
	defer func() {
		elapsed := time.Since(start)
		span.Annotate(obs.F("verdict", res.verdict))
		span.End()
		slow := s.cfg.SlowThreshold > 0 && elapsed > s.cfg.SlowThreshold
		if slow {
			s.metrics.Add("server.jobs.slow", 1)
			s.metrics.Event("server.job.slow",
				obs.F("trace", tracer.TraceID()),
				obs.F("lang", req.Lang),
				obs.F("durationMs", fmt.Sprintf("%.1f", float64(elapsed.Nanoseconds())/1e6)),
				obs.F("threshold", s.cfg.SlowThreshold.String()))
		}
		s.recorder.Record(&flightEntry{
			TraceID:    tracer.TraceID(),
			Lang:       req.Lang,
			Verdict:    res.verdict,
			Status:     res.status,
			DurationMs: float64(elapsed.Nanoseconds()) / 1e6,
			Slow:       slow,
			Start:      start,
			Trace:      tracer.Snapshot(),
		})
	}()

	if d := s.jobDeadline(req); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	if req.Lang == "priml" {
		res = s.runPRIML(req, tracer)
		return res
	}

	opts := append([]privacyscope.Option{privacyscope.WithObserver(ob)},
		req.Options.FacadeOptions()...)
	if req.ConfigXML != "" {
		opts = append(opts, privacyscope.WithConfigXML([]byte(req.ConfigXML)))
	}

	rep, err := privacyscope.AnalyzeEnclaveContext(ctx, req.Source, req.EDL, opts...)
	if err != nil {
		s.metrics.Add("server.analyses.failed", 1)
		// Module-level failures (parse error, bad rule file, no ECALLs)
		// are deterministic for a given request, so they cache too.
		res = &analysisResult{
			status:    http.StatusUnprocessableEntity,
			body:      errorBody(err.Error()),
			cacheable: true,
			traceID:   tracer.TraceID(),
		}
		return res
	}
	env := privacyscope.NewEnvelope(rep, time.Since(start), nil)
	env.TraceID = tracer.TraceID()
	res = envelopeResult(env)
	return res
}

// runPRIML analyzes a PRIML program and flattens the result into the same
// envelope shape. PRIML programs are single-procedure and tiny, so they run
// without cancellation plumbing; the scheduler still bounds concurrency.
func (s *Server) runPRIML(req *AnalyzeRequest, tracer *obs.Tracer) *analysisResult {
	start := time.Now()
	an, err := privacyscope.AnalyzePRIML(req.Source)
	if err != nil {
		s.metrics.Add("server.analyses.failed", 1)
		return &analysisResult{
			status:    http.StatusUnprocessableEntity,
			body:      errorBody(err.Error()),
			cacheable: true,
			traceID:   tracer.TraceID(),
		}
	}
	env := privacyscope.Envelope{
		Findings:   []privacyscope.EnvelopeFinding{},
		Secure:     an.Secure(),
		Engine:     privacyscope.Fingerprint(),
		DurationMs: float64(time.Since(start).Nanoseconds()) / 1e6,
		Paths:      an.Paths,
	}
	verdict := privacyscope.VerdictSecure
	if len(an.Findings) > 0 {
		verdict = privacyscope.VerdictFindings
	}
	env.Verdict = verdict.String()
	for _, f := range an.Findings {
		env.Findings = append(env.Findings, privacyscope.EnvelopeFinding{
			Function: "priml",
			Kind:     f.Kind.String(),
			Sink:     "declassify",
			Where:    fmt.Sprintf("declassify#%d @ %v", f.Site, f.Pos),
			Secret:   fmt.Sprintf("t%d", f.Secret),
			Message:  f.Message,
		})
	}
	env.Functions = []privacyscope.EnvelopeFunction{{
		Function: "priml",
		Verdict:  env.Verdict,
	}}
	env.TraceID = tracer.TraceID()
	return envelopeResult(env)
}

// jobDeadline picks the per-job wall-clock budget: the request's, else the
// server default, capped by MaxDeadline either way.
func (s *Server) jobDeadline(req *AnalyzeRequest) time.Duration {
	d := time.Duration(req.Options.DeadlineMs) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	if s.cfg.MaxDeadline > 0 && (d <= 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	return d
}

// envelopeResult maps a finished envelope onto its HTTP status: the
// fail-soft verdict contract of docs/ROBUSTNESS.md in HTTP form.
func envelopeResult(env privacyscope.Envelope) *analysisResult {
	status := http.StatusOK
	switch env.Verdict {
	case privacyscope.VerdictInconclusive.String():
		// Partial coverage: the body is a valid envelope but the path
		// space was not exhausted.
		status = http.StatusPartialContent
	case privacyscope.VerdictError.String():
		status = http.StatusInternalServerError
	}
	body, err := json.Marshal(env)
	if err != nil {
		return &analysisResult{status: http.StatusInternalServerError, body: errorBody(err.Error())}
	}
	return &analysisResult{
		status:  status,
		body:    body,
		verdict: env.Verdict,
		traceID: env.TraceID,
		// A cancelled analysis (daemon shutdown) would re-explore further
		// on resubmission — never cache it. Budget/deadline truncation is
		// deterministic per request and caches fine.
		cacheable: !env.Cancelled() && env.Verdict != privacyscope.VerdictError.String(),
	}
}

// toResult maps scheduler errors onto backpressure statuses.
func toResult(err error) *analysisResult {
	switch err {
	case errQueueFull:
		return &analysisResult{status: http.StatusTooManyRequests, body: errorBody(err.Error())}
	case errDraining:
		return &analysisResult{status: http.StatusServiceUnavailable, body: errorBody(err.Error())}
	default:
		return &analysisResult{status: http.StatusInternalServerError, body: errorBody(err.Error())}
	}
}

// writeResult writes a finished analysisResult. cacheHdr, when non-empty,
// names how the result was obtained ("hit", "shared").
func writeResult(w http.ResponseWriter, res *analysisResult, cacheHdr string) {
	w.Header().Set("Content-Type", "application/json")
	if res.verdict != "" {
		w.Header().Set("X-Privacyscope-Verdict", res.verdict)
	}
	// Echo the executing trace's ID (a cache hit echoes the leader's — the
	// ID that actually names a recorded trace, if any is still retained).
	if res.traceID != "" {
		w.Header().Set("traceparent", obs.FormatTraceparent(res.traceID, obs.NewSpanID()))
	}
	if cacheHdr != "" {
		w.Header().Set("X-Privacyscope-Cache", cacheHdr)
	}
	if res.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
	if len(res.body) > 0 && res.body[len(res.body)-1] != '\n' {
		w.Write([]byte("\n"))
	}
}

// handleJob is GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.Get(id)
	if !ok {
		writeResult(w, &analysisResult{status: http.StatusNotFound, body: errorBody("unknown job " + id)}, "")
		return
	}
	if job.Status != jobDone {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"jobId": id, "status": job.Status})
		return
	}
	writeResult(w, job.Result, "")
}

// handleTraces is GET /debug/traces: the flight recorder's ring, newest
// first, as summaries (no span trees — fetch one by ID for the full tree).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"capacity": s.recorder.cap,
		"traces":   s.recorder.List(),
	})
}

// handleTrace is GET /debug/traces/{id}: one recorded analysis with its
// full span tree. Only *executed* analyses are recorded — a request served
// from the cache or by joining another client's in-flight analysis has no
// recording of its own (its traceparent response header names the leader's
// trace instead).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := s.recorder.Get(id)
	if !ok {
		writeResult(w, &analysisResult{
			status: http.StatusNotFound,
			body:   errorBody("no recorded trace " + id + " (evicted, or the request never executed an analysis)"),
		}, "")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(e)
}

// handleHealthz is GET /healthz: 200 while serving, 503 once draining. A
// liveness probe reads in-memory counts only; the gauges, whose disk-tier
// part lists the cache directory, are refreshed on /metrics alone.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.sched.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":       status,
		"engine":       s.engine,
		"version":      privacyscope.EngineVersion,
		"workers":      s.cfg.Workers,
		"jobsInFlight": s.sched.InFlight(),
		"queueDepth":   s.sched.QueueDepth(),
		"cacheEntries": s.cache.Len(),
	})
}

// handleMetrics is GET /metrics: the obs registry (daemon counters, cache
// stats, engine counters, per-phase latency spans) in Prometheus text form.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.publishGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w)
}

// publishGauges refreshes the point-in-time gauges before a scrape.
func (s *Server) publishGauges() {
	s.metrics.SetGauge("server.queue.depth", int64(s.sched.QueueDepth()))
	s.metrics.SetGauge("server.jobs.inflight", s.sched.InFlight())
	s.metrics.SetGauge("server.cache.entries", int64(s.cache.Len()))
	if s.cfg.DiskCache != nil {
		entries, bytes := s.cfg.DiskCache.Stats()
		s.metrics.SetGauge("diskcache.entries", int64(entries))
		s.metrics.SetGauge("diskcache.size.bytes", bytes)
	}
}

// jobStore tracks async jobs with bounded retention.
type jobStore struct {
	mu    sync.Mutex
	jobs  map[string]*asyncJob
	order []string
	max   int
}

// Async job states.
const (
	jobQueued  = "queued"
	jobRunning = "running"
	jobDone    = "done"
)

type asyncJob struct {
	ID     string
	Status string
	Result *analysisResult
}

func newJobStore(max int) *jobStore {
	return &jobStore{jobs: make(map[string]*asyncJob), max: max}
}

// Create registers a new job with a random ID.
func (j *jobStore) Create() (string, error) {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "", err
	}
	id := hex.EncodeToString(buf[:])
	j.mu.Lock()
	defer j.mu.Unlock()
	j.jobs[id] = &asyncJob{ID: id, Status: jobQueued}
	j.order = append(j.order, id)
	// Bounded retention: drop the oldest finished jobs past the cap so a
	// client that never polls cannot grow the store without bound.
	for len(j.order) > j.max {
		dropped := false
		for i, old := range j.order {
			if jb, ok := j.jobs[old]; !ok || jb.Status == jobDone {
				delete(j.jobs, old)
				j.order = append(j.order[:i], j.order[i+1:]...)
				dropped = true
				break
			}
		}
		if !dropped {
			break // everything is still in flight; let it finish
		}
	}
	return id, nil
}

func (j *jobStore) Run(id string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if jb, ok := j.jobs[id]; ok {
		jb.Status = jobRunning
	}
}

func (j *jobStore) Finish(id string, res *analysisResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if jb, ok := j.jobs[id]; ok {
		jb.Status = jobDone
		jb.Result = res
	}
}

func (j *jobStore) Drop(id string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.jobs, id)
}

func (j *jobStore) Get(id string) (*asyncJob, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	jb, ok := j.jobs[id]
	if !ok {
		return nil, false
	}
	cp := *jb
	return &cp, true
}
