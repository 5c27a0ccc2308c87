package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"privacyscope/internal/obs"
)

// TestTraceparentIngestion: a valid traceparent pins the trace ID the
// execution records under; the response echoes it in both the traceparent
// header and the envelope, and /debug/traces/<id> serves the span tree.
func TestTraceparentIngestion(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 4, CacheEntries: 16})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	clientTrace := "4bf92f3577b34da6a3ce929d0e0e4736"
	parent := "00-" + clientTrace + "-00f067aa0ba902b7-01"

	body, _ := json.Marshal(AnalyzeRequest{Source: leakyC, EDL: leakyEDL})
	hreq, _ := http.NewRequest("POST", ts.URL+"/v1/analyze", bytes.NewReader(body))
	hreq.Header.Set("traceparent", parent)
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}

	// Response header echoes the client's trace ID with a fresh span ID.
	gotT, _, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok || gotT != clientTrace {
		t.Fatalf("response traceparent = %q, want trace %s", resp.Header.Get("traceparent"), clientTrace)
	}
	env := decodeEnvelope(t, data)
	if env.TraceID != clientTrace {
		t.Fatalf("envelope traceId = %q, want %s", env.TraceID, clientTrace)
	}

	// The flight recorder serves the span tree under the supplied ID.
	tresp, err := ts.Client().Get(ts.URL + "/debug/traces/" + clientTrace)
	if err != nil {
		t.Fatal(err)
	}
	tdata, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s = %d, body %s", clientTrace, tresp.StatusCode, tdata)
	}
	var entry struct {
		TraceID    string  `json:"traceId"`
		Status     int     `json:"status"`
		Verdict    string  `json:"verdict"`
		DurationMs float64 `json:"durationMs"`
		Trace      struct {
			TraceID string `json:"traceId"`
			Spans   []struct {
				Name  string `json:"name"`
				Spans []struct {
					Name string `json:"name"`
				} `json:"spans"`
			} `json:"spans"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(tdata, &entry); err != nil {
		t.Fatalf("bad trace entry %s: %v", tdata, err)
	}
	if entry.TraceID != clientTrace || entry.Trace.TraceID != clientTrace {
		t.Fatalf("recorded trace IDs = %q/%q", entry.TraceID, entry.Trace.TraceID)
	}
	if entry.Verdict != "findings" || entry.Status != http.StatusOK {
		t.Fatalf("recorded verdict/status = %q/%d", entry.Verdict, entry.Status)
	}
	var names []string
	for _, sp := range entry.Trace.Spans {
		names = append(names, sp.Name)
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "server/analyze") {
		t.Fatalf("span tree roots = %v, want server/analyze present", names)
	}
	// The engine spans hang somewhere in the tree (check under
	// server/analyze or as their own roots, depending on handle flow).
	if !strings.Contains(string(tdata), `"check"`) {
		t.Fatalf("trace has no check span: %s", tdata)
	}
}

// TestTraceGeneratedWhenAbsent: no (or malformed) traceparent still traces
// the execution under a daemon-minted ID.
func TestTraceGeneratedWhenAbsent(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 0})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postAnalyze(t, ts, AnalyzeRequest{Source: leakyC, EDL: leakyEDL}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	env := decodeEnvelope(t, data)
	if len(env.TraceID) != 32 {
		t.Fatalf("envelope traceId = %q, want generated 32-hex ID", env.TraceID)
	}
	gotT, _, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok || gotT != env.TraceID {
		t.Fatalf("header trace %q != envelope trace %q", gotT, env.TraceID)
	}
	if _, ok := s.recorder.Get(env.TraceID); !ok {
		t.Fatalf("executed analysis not in flight recorder")
	}
}

// TestFlightRecorderListAndEviction: /debug/traces lists newest first and
// the ring evicts past FlightEntries. QueueDepth 1 lets a back-to-back
// request wait while the single worker is between finishing the previous
// job and taking the next, instead of being refused as queue-full.
func TestFlightRecorderListAndEviction(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, CacheEntries: 0, FlightEntries: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Three distinct executions (cache disabled, distinct sources).
	sources := []string{leakyC, leakyC + "\n// v2\n", leakyC + "\n// v3\n"}
	var ids []string
	for _, src := range sources {
		resp, data := postAnalyze(t, ts, AnalyzeRequest{Source: src, EDL: leakyEDL}, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, data)
		}
		ids = append(ids, decodeEnvelope(t, data).TraceID)
	}

	resp, err := ts.Client().Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var listing struct {
		Capacity int `json:"capacity"`
		Traces   []struct {
			TraceID string `json:"traceId"`
			Spans   int    `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(data, &listing); err != nil {
		t.Fatalf("bad listing %s: %v", data, err)
	}
	if listing.Capacity != 2 || len(listing.Traces) != 2 {
		t.Fatalf("capacity/len = %d/%d, want 2/2", listing.Capacity, len(listing.Traces))
	}
	// Newest first; the oldest execution was evicted.
	if listing.Traces[0].TraceID != ids[2] || listing.Traces[1].TraceID != ids[1] {
		t.Fatalf("listing order = %v, want [%s %s]", listing.Traces, ids[2], ids[1])
	}
	eresp, err := ts.Client().Get(ts.URL + "/debug/traces/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	eresp.Body.Close()
	if eresp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted trace GET = %d, want 404", eresp.StatusCode)
	}
}

// TestCacheHitNotRecorded: a request served from the cache executes no
// analysis and records nothing new; its response still names the leader's
// trace.
func TestCacheHitNotRecorded(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 16})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := AnalyzeRequest{Source: leakyC, EDL: leakyEDL}
	resp1, data1 := postAnalyze(t, ts, req, "")
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp1.StatusCode)
	}
	leader := decodeEnvelope(t, data1).TraceID
	if s.recorder.Len() != 1 {
		t.Fatalf("recorded = %d, want 1", s.recorder.Len())
	}

	resp2, _ := postAnalyze(t, ts, req, "")
	if got := resp2.Header.Get("X-Privacyscope-Cache"); got != "hit" {
		t.Fatalf("cache header = %q", got)
	}
	if s.recorder.Len() != 1 {
		t.Fatalf("cache hit grew the recorder to %d", s.recorder.Len())
	}
	gotT, _, ok := obs.ParseTraceparent(resp2.Header.Get("traceparent"))
	if !ok || gotT != leader {
		t.Fatalf("cache hit traceparent = %q, want leader trace %s", resp2.Header.Get("traceparent"), leader)
	}
}

// TestSlowAnalysisEvent: an execution exceeding SlowThreshold bumps the
// slow counter and flags the flight entry.
func TestSlowAnalysisEvent(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 0, SlowThreshold: time.Nanosecond})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postAnalyze(t, ts, AnalyzeRequest{Source: leakyC, EDL: leakyEDL}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if n := s.metrics.Counter("server.jobs.slow"); n != 1 {
		t.Fatalf("server.jobs.slow = %d, want 1", n)
	}
	id := decodeEnvelope(t, data).TraceID
	e, ok := s.recorder.Get(id)
	if !ok || !e.Slow {
		t.Fatalf("flight entry slow flag: entry=%v ok=%v", e, ok)
	}
}
