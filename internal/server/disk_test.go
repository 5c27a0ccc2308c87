package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"privacyscope/internal/diskcache"
	"privacyscope/internal/obs"
)

func openDisk(t *testing.T, dir string) *diskcache.Cache {
	t.Helper()
	c, err := diskcache.Open(diskcache.Config{Dir: dir, Observer: obs.NewMetrics()})
	if err != nil {
		t.Fatalf("diskcache.Open: %v", err)
	}
	return c
}

// listingFS counts the disk tier's directory listings.
type listingFS struct {
	diskcache.FS
	listings atomic.Int64
}

func (l *listingFS) ReadDir(name string) ([]fs.DirEntry, error) {
	l.listings.Add(1)
	return l.FS.ReadDir(name)
}

// TestHealthzNeverListsDiskCache pins that a liveness probe costs no disk
// scan: /healthz answers from in-memory counts, and only /metrics refreshes
// the disk-tier gauges (which list the cache directory).
func TestHealthzNeverListsDiskCache(t *testing.T) {
	lfs := &listingFS{FS: diskcache.OSFS()}
	disk, err := diskcache.Open(diskcache.Config{Dir: t.TempDir(), FS: lfs})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 16, DiskCache: disk})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
	}
	before := lfs.listings.Load()
	for i := 0; i < 5; i++ {
		get("/healthz")
	}
	if n := lfs.listings.Load() - before; n != 0 {
		t.Errorf("5 /healthz probes listed the disk cache %d times, want 0", n)
	}
	get("/metrics")
	if lfs.listings.Load() == before {
		t.Error("/metrics did not refresh the disk-tier gauges")
	}
}

// TestWarmRestart is the daemon's restart story: a result computed by one
// server generation is served from the disk tier by the next — zero engine
// runs, byte-identical body — because the in-memory LRU sits over a
// persistent cache keyed on the same content address.
func TestWarmRestart(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	req := AnalyzeRequest{Source: leakyC, EDL: leakyEDL}

	// Generation 1 computes and persists.
	s1 := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 16, DiskCache: openDisk(t, cacheDir)})
	ts1 := httptest.NewServer(s1.Handler())
	resp1, body1 := postAnalyze(t, ts1, req, "")
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp1.StatusCode, body1)
	}
	if n := s1.metrics.Counter("server.analyses.executed"); n != 1 {
		t.Fatalf("gen1 executed = %d, want 1", n)
	}
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatalf("gen1 shutdown: %v", err)
	}

	// Generation 2 — a fresh process in spirit: empty memory LRU, same
	// disk directory. The disk tier shares the server's metrics, as the
	// daemon wires it, so diskcache.* counters land beside server.cache.*.
	m2 := obs.NewMetrics()
	disk2, err := diskcache.Open(diskcache.Config{Dir: cacheDir, Observer: m2})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 16, DiskCache: disk2, Metrics: m2})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	resp2, body2 := postAnalyze(t, ts2, req, "")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Privacyscope-Cache"); got != "hit" {
		t.Errorf("restarted daemon cache header = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("restarted daemon served a different body:\n%s\nvs\n%s", body1, body2)
	}
	if n := s2.metrics.Counter("server.analyses.executed"); n != 0 {
		t.Errorf("gen2 executed = %d, want 0 (served from disk)", n)
	}

	// The disk hit was promoted into gen2's memory tier: a third request
	// hits memory, not disk.
	diskHits := m2.Counter("diskcache.hits")
	if diskHits == 0 {
		t.Error("restart hit did not come from the disk tier")
	}
	resp3, _ := postAnalyze(t, ts2, req, "")
	if got := resp3.Header.Get("X-Privacyscope-Cache"); got != "hit" {
		t.Errorf("third request cache header = %q, want hit", got)
	}
	if got := m2.Counter("diskcache.hits"); got != diskHits {
		t.Errorf("third request went back to disk (diskcache.hits %d → %d)", diskHits, got)
	}
}

// TestWarmRestartCorruptEntry: a damaged disk entry under the daemon
// degrades to a recompute, exactly like the batch driver.
func TestWarmRestartCorruptEntry(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	req := AnalyzeRequest{Source: leakyC, EDL: leakyEDL}

	s1 := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 16, DiskCache: openDisk(t, cacheDir)})
	ts1 := httptest.NewServer(s1.Handler())
	_, body1 := postAnalyze(t, ts1, req, "")
	ts1.Close()
	s1.Shutdown(context.Background())

	// Flip a byte in every persisted entry.
	des, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	damaged := 0
	for _, de := range des {
		path := filepath.Join(cacheDir, de.Name())
		data, err := os.ReadFile(path)
		if err != nil || len(data) == 0 {
			continue
		}
		data[len(data)-1] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged == 0 {
		t.Fatal("generation 1 persisted nothing")
	}

	s2 := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 16, DiskCache: openDisk(t, cacheDir)})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	resp2, body2 := postAnalyze(t, ts2, req, "")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("corrupt disk entry failed the request: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Privacyscope-Cache"); got == "hit" {
		t.Error("corrupt disk entry served as a hit")
	}
	if n := s2.metrics.Counter("server.analyses.executed"); n != 1 {
		t.Errorf("gen2 executed = %d, want 1 (recompute)", n)
	}
	// The recompute ran for real, so only the wall clock may differ.
	env1, env2 := decodeEnvelope(t, body1), decodeEnvelope(t, body2)
	f1, _ := json.Marshal(env1.Findings)
	f2, _ := json.Marshal(env2.Findings)
	if !bytes.Equal(f1, f2) || env1.Verdict != env2.Verdict {
		t.Errorf("recomputed findings differ from original:\n%s\nvs\n%s", f1, f2)
	}
}
