package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"privacyscope/internal/obs/obstest"
)

// TestCounterRegistryMatchesDocs is the documentation drift gate: an
// end-to-end daemon analysis (engine + checker + cache + scheduler all
// emitting) must not produce a counter, gauge, or span name that
// docs/OBSERVABILITY.md does not document. New instrumentation lands with
// its registry row or this fails.
func TestCounterRegistryMatchesDocs(t *testing.T) {
	documented := obstest.DocRegistry(t, filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))

	// QueueDepth 1: a back-to-back request may arrive while the single
	// worker is between jobs, and must wait rather than be refused.
	s := New(Config{Workers: 1, QueueDepth: 1, CacheEntries: 16, SlowThreshold: time.Nanosecond})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Execute (slow-flagged), then repeat for a cache hit, then a distinct
	// source, so scheduler, cache, and slow-path counters all fire.
	for _, src := range []string{leakyC, leakyC, leakyC + "\n// distinct\n"} {
		resp, data := postAnalyze(t, ts, AnalyzeRequest{Source: src, EDL: leakyEDL}, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, data)
		}
	}
	// Refresh the point-in-time gauges the same way a scrape does.
	if resp, err := ts.Client().Get(ts.URL + "/metrics"); err == nil {
		resp.Body.Close()
	}

	var missing []string
	for _, n := range s.metrics.CounterNames() {
		if !documented[n] {
			missing = append(missing, "counter "+n)
		}
	}
	snap := s.metrics.Snapshot()
	for n := range snap.Gauges {
		if !documented[n] {
			missing = append(missing, "gauge "+n)
		}
	}
	for n := range snap.Spans {
		if !documented[n] {
			missing = append(missing, "span "+n)
		}
	}
	for n := range snap.Dists {
		if !documented[n] {
			missing = append(missing, "distribution "+n)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("emitted but undocumented in docs/OBSERVABILITY.md:\n  %s",
			strings.Join(missing, "\n  "))
	}
}
