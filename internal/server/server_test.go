package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"privacyscope"
	"privacyscope/internal/mlsuite"
)

const leakyC = `
int enclave_process_data(char *secrets, char *output)
{
    int temporary = secrets[0] + 100;
    output[0] = temporary + 1;
    if (secrets[1] == 0)
        return 0;
    else
        return 1;
}
`

const leakyEDL = `
enclave {
    trusted {
        public int enclave_process_data([in] char *secrets, [out] char *output);
    };
};
`

// slowC is a 2^12-path module: long enough that a cancellation arriving
// mid-exploration leaves genuinely partial coverage. Both arms of each
// branch add one to the observed acc, so no branch is a faint join.
func slowC() string {
	var sb strings.Builder
	sb.WriteString("int slow(char *secrets, char *output)\n{\n    int acc = 0;\n")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&sb, "    if (secrets[%d] > 0) acc = acc + 1; else acc = 1 + acc;\n", i)
	}
	sb.WriteString("    output[0] = acc;\n    return 0;\n}\n")
	return sb.String()
}

const slowEDL = `
enclave {
    trusted {
        public int slow([in] char *secrets, [out] char *output);
    };
};
`

func postAnalyze(t *testing.T, ts *httptest.Server, req AnalyzeRequest, query string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/analyze"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeEnvelope(t *testing.T, data []byte) privacyscope.Envelope {
	t.Helper()
	var env privacyscope.Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("bad envelope %q: %v", data, err)
	}
	return env
}

// TestAnalyzeSyncAndCacheHit is acceptance criterion (a): a repeated
// identical submission is served from the cache — the hit counter
// increments and no new engine run happens.
func TestAnalyzeSyncAndCacheHit(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 4, CacheEntries: 16})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := AnalyzeRequest{Source: leakyC, EDL: leakyEDL}
	resp, data := postAnalyze(t, ts, req, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Privacyscope-Cache"); got != "" {
		t.Errorf("first request cache header = %q, want empty (miss)", got)
	}
	env := decodeEnvelope(t, data)
	if env.Verdict != "findings" || len(env.Findings) != 2 {
		t.Fatalf("verdict=%q findings=%d, want findings/2", env.Verdict, len(env.Findings))
	}
	if env.Engine != privacyscope.Fingerprint() {
		t.Errorf("envelope engine = %q, want %q", env.Engine, privacyscope.Fingerprint())
	}
	if s.metrics.Counter("server.analyses.executed") != 1 {
		t.Fatalf("executed = %d, want 1", s.metrics.Counter("server.analyses.executed"))
	}

	// The identical submission again: cache hit, byte-identical body, no
	// second engine run.
	resp2, data2 := postAnalyze(t, ts, req, "")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Privacyscope-Cache"); got != "hit" {
		t.Errorf("repeat cache header = %q, want hit", got)
	}
	if !bytes.Equal(data, data2) {
		t.Errorf("cached body differs from original:\n%s\nvs\n%s", data, data2)
	}
	if hits := s.metrics.Counter("server.cache.hits"); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	if n := s.metrics.Counter("server.analyses.executed"); n != 1 {
		t.Errorf("executed = %d after repeat, want still 1 (no new engine run)", n)
	}

	// A different detector set is a different content address: miss, new
	// run.
	req.Options.Detectors = []string{"explicit"}
	resp3, data3 := postAnalyze(t, ts, req, "")
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp3.StatusCode)
	}
	env3 := decodeEnvelope(t, data3)
	if len(env3.Findings) != 1 {
		t.Errorf("explicit-only findings = %d, want 1", len(env3.Findings))
	}
	if n := s.metrics.Counter("server.analyses.executed"); n != 2 {
		t.Errorf("executed = %d, want 2 (new option set, new analysis)", n)
	}

	// An older client's {"noImplicit":true} names the same detector set,
	// so it hits the same cache entry.
	legacy, err := json.Marshal(map[string]any{
		"source": leakyC, "edl": leakyEDL,
		"options": json.RawMessage(`{"noImplicit":true}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp4, err := ts.Client().Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	data4, err := io.ReadAll(resp4.Body)
	resp4.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := resp4.Header.Get("X-Privacyscope-Cache"); resp4.StatusCode != http.StatusOK || got != "hit" {
		t.Errorf("legacy noImplicit request: status %d, cache header %q, want 200 and hit", resp4.StatusCode, got)
	}
	if !bytes.Equal(data3, data4) {
		t.Errorf("legacy noImplicit body differs from the explicit-only one:\n%s\nvs\n%s", data3, data4)
	}
	if n := s.metrics.Counter("server.analyses.executed"); n != 2 {
		t.Errorf("executed = %d after the legacy request, want still 2", n)
	}
}

// TestSingleflightDedup is acceptance criterion (b): concurrent identical
// submissions trigger exactly one analysis. The leader is gated inside the
// worker until the followers are provably waiting on its flight call, so
// the assertion cannot race.
func TestSingleflightDedup(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 4, CacheEntries: 16})
	defer s.Shutdown(context.Background())
	gate := make(chan struct{})
	keyCh := make(chan string, 1)
	s.hookAnalyzeStart = func(key string) {
		keyCh <- key // the leader announces the in-flight key…
		<-gate       // …and blocks until the test has counted followers
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := AnalyzeRequest{Source: leakyC, EDL: leakyEDL}
	const followers = 3

	var wg sync.WaitGroup
	statuses := make([]int, followers+1)
	bodies := make([][]byte, followers+1)
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postAnalyze(t, ts, req, "")
			statuses[i] = resp.StatusCode
			bodies[i] = data
		}(i)
	}
	// Wait until every follower has joined the leader's in-flight call,
	// then release the leader.
	key := <-keyCh
	deadline := time.Now().Add(10 * time.Second)
	for s.flight.waiting(key) < followers {
		if time.Now().After(deadline) {
			t.Fatalf("followers never joined: waiting=%d", s.flight.waiting(key))
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i, code := range statuses {
		if code != http.StatusOK {
			t.Errorf("request %d status = %d", i, code)
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs", i)
		}
	}
	if n := s.metrics.Counter("server.analyses.executed"); n != 1 {
		t.Errorf("executed = %d, want exactly 1 (singleflight)", n)
	}
	if n := s.metrics.Counter("server.singleflight.shared"); n != followers {
		t.Errorf("shared = %d, want %d", n, followers)
	}
}

// TestConcurrentDistinctSubmissions pins the other side of the dedup:
// concurrent submissions of distinct modules share nothing, so each one
// runs the engine once and none is a cache hit or a singleflight join.
func TestConcurrentDistinctSubmissions(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 16, CacheEntries: 16})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	var wg sync.WaitGroup
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		name := fmt.Sprintf("f%d", i)
		body, err := json.Marshal(AnalyzeRequest{
			Source: strings.Replace(leakyC, "enclave_process_data", name, 1),
			EDL:    strings.Replace(leakyEDL, "enclave_process_data", name, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, code := range statuses {
		if code != http.StatusOK {
			t.Errorf("request %d status = %d", i, code)
		}
	}
	for name, want := range map[string]int64{
		"server.analyses.executed":   n,
		"server.cache.hits":          0,
		"server.singleflight.shared": 0,
	} {
		if got := s.metrics.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestQueueFullBackpressure is acceptance criterion (c): a submission
// arriving with all workers busy and the queue full gets 429.
func TestQueueFullBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, CacheEntries: 16})
	defer s.Shutdown(context.Background())
	gate := make(chan struct{})
	s.hookAnalyzeStart = func(string) { <-gate }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Three distinct modules so singleflight cannot merge them.
	mkReq := func(i int) AnalyzeRequest {
		src := strings.Replace(leakyC, "enclave_process_data", fmt.Sprintf("f%d", i), 1)
		iface := strings.Replace(leakyEDL, "enclave_process_data", fmt.Sprintf("f%d", i), 1)
		return AnalyzeRequest{Source: src, EDL: iface}
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); postAnalyze(t, ts, mkReq(0), "") }() // occupies the worker
	waitFor(t, func() bool { return s.sched.InFlight() == 1 })
	go func() { defer wg.Done(); postAnalyze(t, ts, mkReq(1), "") }() // occupies the queue slot
	waitFor(t, func() bool { return s.sched.QueueDepth() == 1 })

	resp, data := postAnalyze(t, ts, mkReq(2), "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429; body %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 must carry Retry-After")
	}
	if n := s.metrics.Counter("server.queue.rejected"); n != 1 {
		t.Errorf("rejected = %d, want 1", n)
	}

	close(gate)
	wg.Wait()
}

// TestGracefulShutdown is acceptance criterion (d): Shutdown cancels
// in-flight jobs, their clients receive fail-soft partial-coverage
// envelopes (206, reason "cancelled"), queued jobs drain the same way, and
// new submissions are refused with 503.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 16})
	gate := make(chan struct{})
	s.hookAnalyzeStart = func(string) { <-gate }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Two distinct slow modules (distinct content addresses): one holds
	// the single worker, the other waits in the queue. Both are large
	// enough that a cancelled context truncates them mid-exploration —
	// a module small enough to finish before the engine's first
	// cancellation check legitimately completes during the drain.
	slow := AnalyzeRequest{Source: slowC(), EDL: slowEDL}
	queued := AnalyzeRequest{
		Source: strings.Replace(slowC(), "slow", "slow2", 1),
		EDL:    strings.Replace(slowEDL, "slow", "slow2", 1),
	}

	type outcome struct {
		resp *http.Response
		data []byte
	}
	results := make(chan outcome, 2)
	go func() {
		resp, data := postAnalyze(t, ts, slow, "")
		results <- outcome{resp, data}
	}()
	waitFor(t, func() bool { return s.sched.InFlight() == 1 })
	go func() {
		resp, data := postAnalyze(t, ts, queued, "")
		results <- outcome{resp, data}
	}()
	waitFor(t, func() bool { return s.sched.QueueDepth() == 1 })

	// Begin draining while both jobs are outstanding, then release the
	// gate so the worker proceeds under the now-cancelled base context.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return s.sched.Draining() })
	close(gate)

	for i := 0; i < 2; i++ {
		out := <-results
		if out.resp.StatusCode != http.StatusPartialContent {
			t.Errorf("drained job %d status = %d, want 206; body %s", i, out.resp.StatusCode, out.data)
			continue
		}
		env := decodeEnvelope(t, out.data)
		if env.Verdict != "inconclusive" {
			t.Errorf("drained job %d verdict = %q, want inconclusive", i, env.Verdict)
		}
		for _, f := range env.Functions {
			if !f.Coverage.Truncated || f.Coverage.Reason != privacyscope.TruncCancelled {
				t.Errorf("drained job %d coverage = %+v, want cancelled truncation", i, f.Coverage)
			}
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Cancelled results must not poison the cache.
	if n := s.cache.Len(); n != 0 {
		t.Errorf("cache holds %d cancelled results, want 0", n)
	}

	// The drained daemon refuses new work and reports unhealthy.
	resp, _ := postAnalyze(t, ts, AnalyzeRequest{Source: leakyC, EDL: leakyEDL}, "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown status = %d, want 503", resp.StatusCode)
	}
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz = %d, want 503 while draining", hresp.StatusCode)
	}
}

// TestAsyncJobLifecycle: 202 + job ID, poll to completion, unknown jobs
// 404, and an async resubmission of a cached module completes immediately.
func TestAsyncJobLifecycle(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 4, CacheEntries: 16})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := AnalyzeRequest{Source: leakyC, EDL: leakyEDL}
	resp, data := postAnalyze(t, ts, req, "?async=1")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async status = %d, body %s", resp.StatusCode, data)
	}
	var ack struct{ JobId, Status string }
	if err := json.Unmarshal(data, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.JobId == "" {
		t.Fatal("no job id")
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+ack.JobId {
		t.Errorf("Location = %q", loc)
	}

	var final []byte
	deadline := time.Now().Add(30 * time.Second)
	for {
		jr, err := ts.Client().Get(ts.URL + "/v1/jobs/" + ack.JobId)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(jr.Body)
		jr.Body.Close()
		if jr.StatusCode == http.StatusOK {
			final = body
			break
		}
		if jr.StatusCode != http.StatusAccepted {
			t.Fatalf("poll status = %d, body %s", jr.StatusCode, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	env := decodeEnvelope(t, final)
	if env.Verdict != "findings" || len(env.Findings) != 2 {
		t.Errorf("async verdict=%q findings=%d, want findings/2", env.Verdict, len(env.Findings))
	}

	// Async resubmission of the now-cached module: done at POST time.
	resp2, data2 := postAnalyze(t, ts, req, "?async=1")
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("async repeat status = %d", resp2.StatusCode)
	}
	var ack2 struct{ JobId, Status string }
	if err := json.Unmarshal(data2, &ack2); err != nil {
		t.Fatal(err)
	}
	if ack2.Status != jobDone {
		t.Errorf("cached async status = %q, want done", ack2.Status)
	}

	jr, err := ts.Client().Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if jr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", jr.StatusCode)
	}
}

// TestMLSuiteThroughServer drives the paper's evaluation modules through
// the daemon end to end: the Recommender's six §VI-D-1 violations arrive
// through HTTP exactly as through the library, and a clean module is 200
// secure.
func TestMLSuiteThroughServer(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8, CacheEntries: 16})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postAnalyze(t, ts, AnalyzeRequest{
		Source: mlsuite.RecommenderC,
		EDL:    mlsuite.RecommenderEDL,
	}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("Recommender status = %d, body %s", resp.StatusCode, data)
	}
	env := decodeEnvelope(t, data)
	if env.Verdict != "findings" || len(env.Findings) != 6 {
		t.Errorf("Recommender verdict=%q findings=%d, want findings/6", env.Verdict, len(env.Findings))
	}
	if resp.Header.Get("X-Privacyscope-Verdict") != "findings" {
		t.Errorf("verdict header = %q", resp.Header.Get("X-Privacyscope-Verdict"))
	}

	resp, data = postAnalyze(t, ts, AnalyzeRequest{
		Source: mlsuite.FixedRecommenderC,
		EDL:    mlsuite.FixedRecommenderEDL,
	}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("FixedRecommender status = %d, body %s", resp.StatusCode, data)
	}
	env = decodeEnvelope(t, data)
	if env.Verdict != "secure" || !env.Secure {
		t.Errorf("FixedRecommender verdict=%q, want secure", env.Verdict)
	}

	resp, data = postAnalyze(t, ts, AnalyzeRequest{
		Source: mlsuite.LinRegC,
		EDL:    mlsuite.LinRegEDL,
	}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("LinReg status = %d, body %s", resp.StatusCode, data)
	}
}

// TestPRIMLThroughServer: PRIML programs are first-class daemon clients.
func TestPRIMLThroughServer(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, CacheEntries: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postAnalyze(t, ts, AnalyzeRequest{
		Lang:   "priml",
		Source: "h := 2 * get_secret(secret);\ndeclassify(h)",
	}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	env := decodeEnvelope(t, data)
	if env.Verdict != "findings" || len(env.Findings) != 1 || env.Findings[0].Kind != "explicit" {
		t.Errorf("priml envelope = %+v, want one explicit finding", env)
	}

	resp, data = postAnalyze(t, ts, AnalyzeRequest{
		Lang:   "priml",
		Source: "x := get_secret(a) + get_secret(b);\ndeclassify(x)",
	}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	env = decodeEnvelope(t, data)
	if env.Verdict != "secure" {
		t.Errorf("masked priml program verdict = %q, want secure", env.Verdict)
	}
}

// TestRequestValidationAndModuleErrors: 400 for malformed requests, 422
// for unparseable modules — and 422s are content-addressed too.
func TestRequestValidationAndModuleErrors(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, CacheEntries: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON = %d, want 400", resp.StatusCode)
	}

	for _, req := range []AnalyzeRequest{
		{Source: leakyC},                       // minic without EDL
		{Lang: "rust", Source: "fn main() {}"}, // unknown lang
		{Lang: "minic", EDL: leakyEDL},         // no source
	} {
		resp, data := postAnalyze(t, ts, req, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("validate %+v = %d, want 400; body %s", req, resp.StatusCode, data)
		}
	}

	bad := AnalyzeRequest{Source: "int f( {", EDL: leakyEDL}
	resp2, data := postAnalyze(t, ts, bad, "")
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("parse error = %d, want 422; body %s", resp2.StatusCode, data)
	}
	resp3, _ := postAnalyze(t, ts, bad, "")
	if resp3.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("repeat parse error = %d, want 422", resp3.StatusCode)
	}
	if hits := s.metrics.Counter("server.cache.hits"); hits != 1 {
		t.Errorf("module-error cache hits = %d, want 1", hits)
	}
}

// TestHealthzAndMetrics: the health endpoint reports daemon vitals and
// /metrics exposes the obs registry — cache counters, queue gauges, and
// the engine's per-phase latency spans — in Prometheus text form.
func TestHealthzAndMetrics(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, CacheEntries: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postAnalyze(t, ts, AnalyzeRequest{Source: leakyC, EDL: leakyEDL}, "")
	postAnalyze(t, ts, AnalyzeRequest{Source: leakyC, EDL: leakyEDL}, "")

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz = %d %v", resp.StatusCode, health)
	}
	if health["engine"] != privacyscope.Fingerprint() {
		t.Errorf("healthz engine = %v", health["engine"])
	}
	if health["cacheEntries"].(float64) != 1 {
		t.Errorf("cacheEntries = %v, want 1", health["cacheEntries"])
	}

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mbody)
	for _, want := range []string{
		"privacyscope_server_requests 2",
		"privacyscope_server_cache_hits 1",
		"privacyscope_server_cache_misses",
		"privacyscope_server_analyses_executed 1",
		"privacyscope_server_queue_depth",
		"privacyscope_server_jobs_inflight",
		"privacyscope_server_cache_entries 1",
		"privacyscope_check_symexec_count",          // engine per-phase latency
		"privacyscope_server_analyze_seconds_total", // daemon-side latency
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestCacheEviction: the LRU bound holds and evictions are counted.
func TestCacheEviction(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		src := strings.Replace(leakyC, "enclave_process_data", fmt.Sprintf("f%d", i), 1)
		iface := strings.Replace(leakyEDL, "enclave_process_data", fmt.Sprintf("f%d", i), 1)
		resp, data := postAnalyze(t, ts, AnalyzeRequest{Source: src, EDL: iface}, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, data)
		}
	}
	if n := s.cache.Len(); n != 2 {
		t.Errorf("cache len = %d, want 2", n)
	}
	if n := s.metrics.Counter("server.cache.evictions"); n != 1 {
		t.Errorf("evictions = %d, want 1", n)
	}
}

// TestDeadlineDegradesTo206: a per-job deadline produces a 206
// partial-coverage envelope, not an error — and deadline-truncated results
// (unlike cancelled ones) are cacheable.
func TestDeadlineDegradesTo206(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, CacheEntries: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := AnalyzeRequest{Source: slowC(), EDL: slowEDL}
	req.Options.DeadlineMs = 1
	resp, data := postAnalyze(t, ts, req, "")
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status = %d, want 206; body %s", resp.StatusCode, data)
	}
	env := decodeEnvelope(t, data)
	if env.Verdict != "inconclusive" {
		t.Errorf("verdict = %q, want inconclusive", env.Verdict)
	}
	if s.cache.Len() != 1 {
		t.Errorf("deadline-truncated result should cache; len = %d", s.cache.Len())
	}
}

// waitFor polls cond up to 10s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOversizedBodyAnswers413: a request body past the source limit is cut
// by MaxBytesReader and answered with 413 plus a JSON error envelope (and
// the server.requests.toolarge counter) — not a generic 400, and never an
// unbounded read.
func TestOversizedBodyAnswers413(t *testing.T) {
	s := New(Config{Workers: 1, MaxSourceBytes: 1024})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := strings.Repeat("x", 256<<10)
	body := fmt.Sprintf(`{"source":%q,"edl":"e"}`, big)
	resp, err := ts.Client().Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "exceeds") {
		t.Fatalf("413 body must be a JSON error naming the limit: %q (err %v)", e.Error, err)
	}
	if got := s.metrics.Counter("server.requests.toolarge"); got != 1 {
		t.Fatalf("server.requests.toolarge = %d, want 1", got)
	}

	// A body inside the limit still analyzes fine on the same server.
	resp2, data := postAnalyze(t, ts, AnalyzeRequest{Source: leakyC, EDL: leakyEDL}, "")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("in-limit request after a 413 = %d, body %s", resp2.StatusCode, data)
	}
}
