package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func entry(id string) *flightEntry {
	return &flightEntry{TraceID: id, Lang: "minic", Status: 200, Start: time.Now()}
}

// TestFlightRecorderWraparound: the ring holds exactly cap entries; older
// recordings evict oldest-first and their IDs stop resolving.
func TestFlightRecorderWraparound(t *testing.T) {
	f := newFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Record(entry(fmt.Sprintf("t%02d", i)))
	}
	if f.Len() != 4 {
		t.Fatalf("Len = %d, want 4", f.Len())
	}
	list := f.List()
	if len(list) != 4 {
		t.Fatalf("List returned %d rows, want 4", len(list))
	}
	// Newest first: t09..t06 survive, t05 and older are gone.
	for i, want := range []string{"t09", "t08", "t07", "t06"} {
		if got := list[i]["traceId"]; got != want {
			t.Fatalf("list[%d] = %v, want %s", i, got, want)
		}
	}
	if _, ok := f.Get("t05"); ok {
		t.Fatal("evicted trace t05 still resolves")
	}
	if _, ok := f.Get("t09"); !ok {
		t.Fatal("retained trace t09 does not resolve")
	}
}

// TestFlightRecorderReplaceKeepsCap: re-recording an existing trace ID (a
// client reusing a traceparent) replaces in place without consuming a slot.
func TestFlightRecorderReplaceKeepsCap(t *testing.T) {
	f := newFlightRecorder(2)
	f.Record(entry("a"))
	f.Record(entry("b"))
	e := entry("a")
	e.Verdict = "findings"
	f.Record(e)
	if f.Len() != 2 {
		t.Fatalf("Len = %d after in-place replace, want 2", f.Len())
	}
	got, ok := f.Get("a")
	if !ok || got.Verdict != "findings" {
		t.Fatalf("replaced entry not visible: %+v (ok=%v)", got, ok)
	}
	if _, ok := f.Get("b"); !ok {
		t.Fatal("replace evicted an unrelated entry")
	}
}

// TestFlightRecorderConcurrent hammers Record/List/Get from many goroutines
// (run under -race by make check): the ring must stay within cap and every
// listed summary must be internally consistent.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := newFlightRecorder(8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, row := range f.List() {
					id, _ := row["traceId"].(string)
					f.Get(id)
				}
				if n := f.Len(); n > 8 {
					t.Errorf("ring exceeded its cap: %d", n)
					return
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Record(entry(fmt.Sprintf("w%d-%03d", w, i)))
			}
		}(w)
	}
	// Writers finish, then readers stand down.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent flight-recorder exercise hung")
	}
	if f.Len() != 8 {
		t.Fatalf("Len = %d after concurrent churn, want 8", f.Len())
	}
}

// TestFlightRecorderEvictionOverHTTP: with FlightEntries 1, a second
// analysis evicts the first recording — its /debug/traces/{id} answers 404
// while the newest trace still resolves. QueueDepth 1 lets the second
// request wait while the single worker is between finishing the first job
// and taking the next, instead of being refused as queue-full.
func TestFlightRecorderEvictionOverHTTP(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, CacheEntries: 16, FlightEntries: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for _, src := range []string{leakyC, leakyC + "\n// second\n"} {
		resp, data := postAnalyze(t, ts, AnalyzeRequest{Source: src, EDL: leakyEDL}, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, data)
		}
		env := decodeEnvelope(t, data)
		if env.TraceID == "" {
			t.Fatal("executed analysis has no trace ID")
		}
		ids = append(ids, env.TraceID)
	}

	get := func(id string) int {
		resp, err := ts.Client().Get(ts.URL + "/debug/traces/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(ids[0]); code != http.StatusNotFound {
		t.Fatalf("evicted trace answered %d, want 404", code)
	}
	if code := get(ids[1]); code != http.StatusOK {
		t.Fatalf("latest trace answered %d, want 200", code)
	}
	// The listing agrees: exactly one row, the survivor.
	resp, err := ts.Client().Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Traces []map[string]any `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Traces) != 1 || listing.Traces[0]["traceId"] != ids[1] {
		t.Fatalf("listing = %+v, want exactly the surviving trace %s", listing.Traces, ids[1])
	}
}
