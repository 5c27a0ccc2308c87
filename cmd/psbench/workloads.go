package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"privacyscope"
	"privacyscope/internal/batch"
	"privacyscope/internal/diskcache"
	"privacyscope/internal/obs"
	"privacyscope/internal/server"
)

// Generator streams: one per input family, so adding draws to one family
// never changes another's inputs.
const (
	streamCorpus uint64 = iota + 1
	streamExplosion
	streamBatch
	streamDaemon
)

// --- enclave-corpus and path-explosion: the `privacyscope -json` path ---

func setupCorpus(e *env) (runner, error) {
	or, err := loadOracle()
	if err != nil {
		return nil, err
	}
	mods, err := corpusModules(e.root, or)
	if err != nil {
		return nil, err
	}
	g := newGen(e.seed, streamCorpus, or)
	mods = append(mods, g.smallModules("gen", 12)...)
	g.shuffle(mods)
	return &facadeRunner{mods: mods}, nil
}

func setupExplosion(e *env) (runner, error) {
	or, err := loadOracle()
	if err != nil {
		return nil, err
	}
	g := newGen(e.seed, streamExplosion, or)
	mods := g.explosionModules()
	g.shuffle(mods)
	return &facadeRunner{mods: mods}, nil
}

// facadeRunner analyzes one module per op the way `privacyscope -json`
// does: AnalyzeEnclave with a Metrics observer, NewEnvelope with the
// metrics snapshot, indented JSON encoding.
type facadeRunner struct {
	mods []module
	buf  bytes.Buffer
}

func (r *facadeRunner) modules() []module { return r.mods }
func (r *facadeRunner) close()            {}

func (r *facadeRunner) warmup() *phase { return r.measure(0, nil) }

func (r *facadeRunner) measure(d time.Duration, tr *tracing) *phase {
	p := closedLoop(d, len(r.mods), func(i int) (time.Duration, string, error) {
		m := r.mods[i]
		if tr == nil {
			return r.op(m, nil)
		}
		o := tr.begin()
		defer o.end()
		sp := o.tracer.StartSpan("psbench/op")
		sp.Annotate(obs.F("module", m.Name))
		defer sp.End()
		return r.op(m, o.observer())
	})
	if tr != nil {
		p.snap = tr.metrics.Snapshot()
	}
	return p
}

func (r *facadeRunner) op(m module, ob obs.Observer) (time.Duration, string, error) {
	start := time.Now()
	metrics := privacyscope.NewMetrics()
	opts := []privacyscope.Option{privacyscope.WithObserver(obs.Multi(metrics, ob))}
	if m.XML != "" {
		opts = append(opts, privacyscope.WithConfigXML([]byte(m.XML)))
	}
	rep, err := privacyscope.AnalyzeEnclave(m.C, m.EDL, opts...)
	if err != nil {
		return time.Since(start), "", fmt.Errorf("%s: %w", m.Name, err)
	}
	env := privacyscope.NewEnvelope(rep, time.Since(start), metrics)
	r.buf.Reset()
	enc := json.NewEncoder(&r.buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(env)
	lat := time.Since(start)
	if err == nil {
		err = m.Want.check(&env)
	}
	if err != nil {
		return lat, "", fmt.Errorf("%s: %w", m.Name, err)
	}
	return lat, "", nil
}

// --- batch-incremental: `privacyscope -dir TREE -cache-dir CACHE` ---

// batchClasses are the three project runs of one cycle, in order.
var batchClasses = []string{"cold", "warm", "modified"}

// batchThink is the client's pause between cycles, outside every timed
// run. Back-to-back cycles created and deleted about 2,600 cache files a
// second, and on the calibration host's ext4 root that slowed each run
// after the last by up to a third over a few minutes, recovering only
// minutes after the churn stopped. Over eight consecutive runs a 12 ms
// pause cut that drift from 14% to 5%. A developer's project runs have
// such pauses between them.
const batchThink = 20 * time.Millisecond

// batchRunner cycles cold, warm and one-unit-modified project runs over a
// generated project tree.
type batchRunner struct {
	g        *gen
	tree     string
	cache    string
	mods     []module
	byName   map[string]module
	targets  []module // generated units a modified run may edit
	cold     map[string]string
	restore  func() error // undoes the last modification
	editName string
}

func setupBatch(e *env) (runner, error) {
	or, err := loadOracle()
	if err != nil {
		return nil, err
	}
	corpus, err := corpusModules(e.root, or)
	if err != nil {
		return nil, err
	}
	r := &batchRunner{
		g:      newGen(e.seed, streamBatch, or),
		tree:   filepath.Join(e.work, "tree"),
		cache:  filepath.Join(e.work, "cache"),
		byName: map[string]module{},
	}
	for _, m := range corpus {
		switch {
		case strings.HasPrefix(m.Name, "project/"), strings.HasPrefix(m.Name, "leakpacks/"),
			m.Name == "table5/LinearRegression", m.Name == "table5/Recommender":
			r.mods = append(r.mods, m)
		}
	}
	r.targets = r.g.smallModules("gen", 15)
	r.mods = append(r.mods, r.targets...)
	if err := os.RemoveAll(r.tree); err != nil {
		return nil, err
	}
	for _, m := range r.mods {
		r.byName[m.Name] = m
		if err := writeUnit(r.tree, m); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// writeUnit writes a module as a batch unit: NAME.c, NAME.edl and, when it
// has one, NAME.xml.
func writeUnit(dir string, m module) error {
	base := filepath.Join(dir, filepath.FromSlash(m.Name))
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	files := map[string]string{".c": m.C, ".edl": m.EDL}
	if m.XML != "" {
		files[".xml"] = m.XML
	}
	for ext, src := range files {
		if err := os.WriteFile(base+ext, []byte(src), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (r *batchRunner) modules() []module { return r.mods }
func (r *batchRunner) close()            { os.RemoveAll(filepath.Dir(r.tree)) }

func (r *batchRunner) warmup() *phase { return r.measure(0, nil) }

func (r *batchRunner) measure(d time.Duration, tr *tracing) *phase {
	cycles := 0
	p := closedLoop(d, len(batchClasses), func(i int) (time.Duration, string, error) {
		class := batchClasses[i]
		if i == 0 {
			if cycles > 0 {
				time.Sleep(batchThink)
			}
			cycles++
		}
		if err := r.prepare(class); err != nil {
			return 0, class, err
		}
		var o *opTrace
		var sp obs.Span
		if tr != nil {
			o = tr.begin()
			sp = o.tracer.StartSpan("psbench/run")
			sp.Annotate(obs.F("class", class))
		}
		rep, lat, err := r.projectRun(o)
		if o != nil {
			sp.End()
			o.end()
		}
		if err == nil {
			err = r.check(class, rep)
		}
		return lat, class, err
	})
	if tr != nil {
		p.snap = tr.metrics.Snapshot()
	}
	return p
}

// prepare sets the tree and cache up for a run class, outside the timed
// run: a cold run starts from the pristine tree and an empty cache
// directory; a modified run first gives one seeded generated unit an extra
// non-ECALL helper, appended so no line of the entry points moves.
//
// Both steps avoid freeing disk blocks: the cache directory is emptied,
// not removed, and the unit is rewritten in place, not truncated. On a
// filesystem mounted with online discard every freed block is a discard
// request to the device, and thousands of them a second slowed the
// calibration host's disk from run to run.
func (r *batchRunner) prepare(class string) error {
	switch class {
	case "cold":
		if r.restore != nil {
			if err := r.restore(); err != nil {
				return err
			}
			r.restore = nil
		}
		return emptyDir(r.cache)
	case "modified":
		m := r.targets[r.g.r.IntN(len(r.targets))]
		path := filepath.Join(r.tree, filepath.FromSlash(m.Name)+".c")
		helper := fmt.Sprintf("\nint helper_%s(int x)\n{\n    return x + %d;\n}\n", r.g.hex(), 1+r.g.r.IntN(99))
		if err := rewrite(path, m.C+helper); err != nil {
			return err
		}
		r.editName = m.Name
		r.restore = func() error { return rewrite(path, m.C) }
	}
	return nil
}

// emptyDir removes everything inside dir, which may not exist yet.
func emptyDir(dir string) error {
	des, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, de := range des {
		if err := os.RemoveAll(filepath.Join(dir, de.Name())); err != nil {
			return err
		}
	}
	return nil
}

// rewrite replaces an existing file's contents in place.
func rewrite(path, data string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt([]byte(data), 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Truncate(int64(len(data))); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// projectRun is what the CLI does for -dir -cache-dir: discover, open the
// cache, run the pool, render the report. The traced run attaches the
// observer and tracer the CLI attaches for -json -trace-out.
func (r *batchRunner) projectRun(o *opTrace) (*batch.ProjectReport, time.Duration, error) {
	start := time.Now()
	units, err := batch.Discover(r.tree)
	if err != nil {
		return nil, time.Since(start), err
	}
	ccfg := diskcache.Config{Dir: r.cache, MaxBytes: diskcache.DefaultMaxBytes}
	var cfg batch.Config
	if o != nil {
		ccfg.Observer = o.t.metrics
		cfg.Observer = o.t.metrics
		cfg.Tracer = o.tracer
	}
	cfg.Cache, err = diskcache.Open(ccfg)
	if err != nil {
		return nil, time.Since(start), err
	}
	rep := batch.Run(context.Background(), r.tree, units, cfg)
	io.WriteString(io.Discard, rep.Render())
	return rep, time.Since(start), nil
}

// check verifies every unit's verdict, that the cache served exactly the
// units it should, and that warm and modified envelopes match the cold
// run's with timings aside.
func (r *batchRunner) check(class string, rep *batch.ProjectReport) error {
	if len(rep.Units) != len(r.mods) {
		return fmt.Errorf("%s run: %d units, want %d", class, len(rep.Units), len(r.mods))
	}
	canon := map[string]string{}
	for _, u := range rep.Units {
		if u.Err != "" {
			return fmt.Errorf("%s run: %s: %s", class, u.Unit.Name, u.Err)
		}
		if err := r.byName[u.Unit.Name].Want.check(u.Envelope); err != nil {
			return fmt.Errorf("%s run: %s: %w", class, u.Unit.Name, err)
		}
		wantCached := class == "warm" || (class == "modified" && u.Unit.Name != r.editName)
		if u.Cached != wantCached {
			return fmt.Errorf("%s run: %s cached=%v, want %v", class, u.Unit.Name, u.Cached, wantCached)
		}
		env := *u.Envelope
		env.DurationMs = 0
		b, err := json.Marshal(env)
		if err != nil {
			return err
		}
		canon[u.Unit.Name] = string(b)
	}
	if class == "cold" {
		r.cold = canon
		return nil
	}
	for name, b := range canon {
		if r.cold[name] != b {
			return fmt.Errorf("%s run: %s envelope differs from the cold run's", class, name)
		}
	}
	return nil
}

// --- daemon-mix: POST /v1/analyze against privacyscoped's defaults ---

const (
	daemonClients = 2  // keep-alive connections, one client goroutine each
	daemonHotSet  = 32 // fits the 256-entry result cache with room to spare
)

type daemonRunner struct {
	g         *gen
	pool      []*renamer
	hot       []module
	hotBodies [][]byte
	fresh     int // fresh modules scheduled so far (their unique suffixes)
	srv       *server.Server
	hs        *http.Server
	served    chan error
	client    *http.Client
	url       string
}

// request is one scheduled submission: hot-set module hot, or (hot < 0) a
// fresh copy of pool module base made unique by id. Fresh bodies are built
// when their turn comes, so a run's schedule stays small.
type request struct {
	due           time.Duration
	hot, base, id int
}

func setupDaemon(e *env) (runner, error) {
	r, err := daemonInputs(e)
	if err != nil {
		return nil, err
	}
	// The daemon's flag defaults (cmd/privacyscoped) behind a real
	// loopback listener with its listener timeouts.
	r.srv = server.New(server.Config{
		Workers:         4,
		QueueDepth:      16,
		CacheEntries:    256,
		DefaultDeadline: 30 * time.Second,
		MaxDeadline:     2 * time.Minute,
		FlightEntries:   64,
		SlowThreshold:   10 * time.Second,
		Metrics:         obs.NewMetrics(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.srv.Shutdown(context.Background())
		return nil, err
	}
	r.hs = &http.Server{
		Handler:           r.srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	r.served = make(chan error, 1)
	go func() { r.served <- r.hs.Serve(ln) }()
	r.url = "http://" + ln.Addr().String()
	r.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     daemonClients,
		MaxIdleConnsPerHost: daemonClients,
	}}
	// Prefill the hot set so its repeats are cache hits from the start.
	for h, m := range r.hot {
		if _, _, err := r.post(r.hotBodies[h], m); err != nil {
			r.close()
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	return r, nil
}

// daemonInputs generates the daemon-mix module pool and hot set.
func daemonInputs(e *env) (*daemonRunner, error) {
	or, err := loadOracle()
	if err != nil {
		return nil, err
	}
	corpus, err := corpusModules(e.root, or)
	if err != nil {
		return nil, err
	}
	r := &daemonRunner{g: newGen(e.seed, streamDaemon, or)}
	var base []module
	for _, m := range corpus {
		if strings.HasPrefix(m.Name, "project/") || strings.HasPrefix(m.Name, "leakpacks/") {
			base = append(base, m)
		}
	}
	base = append(base, r.g.smallModules("gen", 12)...)
	for _, m := range base {
		rn, err := newRenamer(m)
		if err != nil {
			return nil, err
		}
		r.pool = append(r.pool, rn)
	}
	for h := 0; h < daemonHotSet; h++ {
		m := r.pool[r.g.r.IntN(len(r.pool))].copy(fmt.Sprintf("h%d", h))
		body, err := requestBody(m)
		if err != nil {
			return nil, err
		}
		r.hot = append(r.hot, m)
		r.hotBodies = append(r.hotBodies, body)
	}
	return r, nil
}

func requestBody(m module) ([]byte, error) {
	return json.Marshal(server.AnalyzeRequest{Source: m.C, EDL: m.EDL, ConfigXML: m.XML})
}

// payload returns a scheduled request's body and module.
func (r *daemonRunner) payload(q request) ([]byte, module, error) {
	if q.hot >= 0 {
		return r.hotBodies[q.hot], r.hot[q.hot], nil
	}
	m := r.pool[q.base].copy(fmt.Sprintf("f%d", q.id))
	body, err := requestBody(m)
	return body, m, err
}

func (r *daemonRunner) modules() []module { return r.hot }

func (r *daemonRunner) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.hs.Shutdown(ctx)
	r.srv.Shutdown(ctx)
	<-r.served
	r.client.CloseIdleConnections()
}

// warmup sends each hot-set module once over one connection.
func (r *daemonRunner) warmup() *phase {
	return closedLoop(0, len(r.hot), func(i int) (time.Duration, string, error) {
		start := time.Now()
		class, _, err := r.post(r.hotBodies[i], r.hot[i])
		return time.Since(start), class, err
	})
}

// schedule draws a seeded Poisson arrival sequence at daemonRate for d:
// 75% hot-set repeats, 20% fresh modules, 5% fresh modules sent twice at
// the same instant (singleflight pairs).
func (r *daemonRunner) schedule(d time.Duration) []request {
	var reqs []request
	for at := time.Duration(0); at < d; at += time.Duration(r.g.r.ExpFloat64() / daemonRate * float64(time.Second)) {
		u := r.g.r.Float64()
		if u < 0.75 {
			reqs = append(reqs, request{due: at, hot: r.g.r.IntN(len(r.hot))})
			continue
		}
		r.fresh++
		q := request{due: at, hot: -1, base: r.g.r.IntN(len(r.pool)), id: r.fresh}
		reqs = append(reqs, q)
		if u >= 0.95 {
			reqs = append(reqs, q)
		}
	}
	return reqs
}

func (r *daemonRunner) measure(d time.Duration, tr *tracing) *phase {
	reqs := r.schedule(d)
	before := r.srv.Metrics().Snapshot()
	p := r.openLoop(reqs, tr)
	p.snap = diffSnapshot(before, r.srv.Metrics().Snapshot())
	return p
}

// openLoop sends every request at its due time from daemonClients
// goroutines. A goroutine still busy at a request's due time sends it late;
// latency counts from the due time, so that wait is part of it.
func (r *daemonRunner) openLoop(reqs []request, tr *tracing) *phase {
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	parts := make([]*phase, daemonClients)
	lastDone := make([]time.Time, daemonClients)
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := newPhase()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					break
				}
				q := reqs[i]
				due := start.Add(q.due)
				body, m, err := r.payload(q)
				if err != nil {
					p.ops++
					p.fail(err)
					continue
				}
				ready := time.Now()
				sleepUntil(due)
				sent := time.Now()
				// The generator is late by the send time past the due time,
				// or past when this goroutine came free if it was busy then.
				if ready.After(due) {
					p.lag = append(p.lag, sent.Sub(ready))
				} else {
					p.lag = append(p.lag, sent.Sub(due))
				}
				var o *opTrace
				var sp obs.Span
				if tr != nil {
					o = tr.begin()
					sp = o.tracer.Lane(c+1, "").StartSpan("psbench/request")
				}
				class, traceID, err := r.post(body, m)
				done := time.Now()
				p.ops++
				lat := done.Sub(due)
				p.lat = append(p.lat, lat)
				p.class[class] = append(p.class[class], done.Sub(sent))
				if err != nil || lat > daemonSLOms*time.Millisecond {
					p.sloMisses++
				}
				if err != nil {
					p.fail(err)
				}
				if o != nil {
					sp.Annotate(obs.F("cache", class))
					sp.End()
					var daemon []span
					if err == nil && class == "executed" {
						if daemon, err = r.fetchTrace(traceID, c+1, tr); err != nil {
							p.fail(err)
						}
					}
					o.end(daemon...)
				}
				lastDone[c] = done
			}
			parts[c] = p
		}(c)
	}
	wg.Wait()
	p := newPhase()
	var wall time.Duration
	for c, q := range parts {
		p.add(q)
		wall = max(wall, lastDone[c].Sub(start))
	}
	p.wall, p.busy = wall, wall
	return p
}

// sleepUntil blocks until t with nanosleep. The runtime's timers wake up
// to a millisecond late on Linux, which would swamp the sub-millisecond
// latencies the open loop times from each due time; nanosleep is late by
// tens of microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// post submits one request and checks the response. The class names how
// the daemon resolved it: "hit" (result cache), "shared" (joined an
// identical in-flight analysis) or "executed".
func (r *daemonRunner) post(body []byte, m module) (class, traceID string, err error) {
	resp, err := r.client.Post(r.url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return "error", "", err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "error", "", err
	}
	class = resp.Header.Get("X-Privacyscope-Cache")
	if class == "" {
		class = "executed"
	}
	if resp.StatusCode != http.StatusOK {
		return class, "", fmt.Errorf("%s: status %d: %s", m.Name, resp.StatusCode, bytes.TrimSpace(body))
	}
	var env privacyscope.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return class, "", fmt.Errorf("%s: %w", m.Name, err)
	}
	if err := m.Want.check(&env); err != nil {
		return class, "", fmt.Errorf("%s: %w", m.Name, err)
	}
	return class, env.TraceID, nil
}

// fetchTrace pulls an executed request's span tree from the daemon's
// flight recorder, placed on the traced run's timeline and on the lane of
// the connection that sent the request.
func (r *daemonRunner) fetchTrace(id string, lane int, tr *tracing) ([]span, error) {
	if id == "" {
		return nil, errors.New("executed response carries no trace ID")
	}
	resp, err := r.client.Get(r.url + "/debug/traces/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var entry struct {
		Start time.Time          `json:"start"`
		Trace *obs.TraceSnapshot `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&entry); err != nil {
		return nil, fmt.Errorf("trace %s: %w", id, err)
	}
	if entry.Trace == nil {
		return nil, fmt.Errorf("trace %s: no span tree", id)
	}
	return flatten(entry.Trace.Spans, "", entry.Start.Sub(tr.start).Microseconds(), lane), nil
}

// diffSnapshot returns the counters and span totals accumulated between
// two snapshots of one Metrics.
func diffSnapshot(a, b obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{Counters: map[string]int64{}, Spans: map[string]obs.SpanStats{}, Dists: map[string]obs.Dist{}}
	for k, v := range b.Counters {
		d.Counters[k] = v - a.Counters[k]
	}
	for k, v := range b.Spans {
		w := a.Spans[k]
		d.Spans[k] = obs.SpanStats{Count: v.Count - w.Count, TotalNanos: v.TotalNanos - w.TotalNanos}
	}
	for k, v := range b.Dists {
		w := a.Dists[k]
		d.Dists[k] = obs.Dist{Count: v.Count - w.Count, Sum: v.Sum - w.Sum}
	}
	return d
}
