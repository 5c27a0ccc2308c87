package diskcache

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privacyscope/internal/obs"
)

func openTemp(t *testing.T, maxBytes int64) (*Cache, *obs.Metrics) {
	t.Helper()
	m := obs.NewMetrics()
	c, err := Open(Config{Dir: t.TempDir(), MaxBytes: maxBytes, Observer: m})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return c, m
}

func TestPutGetRoundtrip(t *testing.T) {
	c, m := openTemp(t, 0)
	key := Key("engine", "src", "edl")
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	payload := []byte(`{"verdict":"secure"}`)
	c.Put(key, payload)
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mismatch: got %q want %q", got, payload)
	}
	if h, mi, p := m.Counter("diskcache.hits"), m.Counter("diskcache.misses"), m.Counter("diskcache.puts"); h != 1 || mi != 1 || p != 1 {
		t.Fatalf("counters hits=%d misses=%d puts=%d, want 1/1/1", h, mi, p)
	}
}

func TestPutReplacesEntry(t *testing.T) {
	c, _ := openTemp(t, 0)
	key := Key("engine", "unit")
	c.Put(key, []byte("first"))
	c.Put(key, []byte("second"))
	got, ok := c.Get(key)
	if !ok || string(got) != "second" {
		t.Fatalf("got %q ok=%v, want %q", got, ok, "second")
	}
	if n, _ := c.Stats(); n != 1 {
		t.Fatalf("Stats entries = %d after re-put, want 1", n)
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	c.Put("deadbeef", []byte("x")) // must not panic
	if _, ok := c.Get("deadbeef"); ok {
		t.Fatal("nil cache returned a hit")
	}
	if n, size := c.Stats(); n != 0 || size != 0 || c.Dir() != "" {
		t.Fatal("nil cache reported non-zero stats")
	}
}

func TestKeyFraming(t *testing.T) {
	// Length framing: shifting bytes between adjacent parts must change
	// the key, so no two distinct part lists collide by concatenation.
	if Key("e", "ab", "c") == Key("e", "a", "bc") {
		t.Fatal(`Key("e","ab","c") == Key("e","a","bc")`)
	}
	if Key("e", "x") == Key("ex") {
		t.Fatal("engine/part boundary not framed")
	}
	if Key("e", "x") != Key("e", "x") {
		t.Fatal("Key not deterministic")
	}
}

func TestHostileKeyCannotEscapeDir(t *testing.T) {
	c, _ := openTemp(t, 0)
	for _, key := range []string{
		"../escape", "..", "a/b", strings.Repeat("ab", 200), "UPPER", "",
	} {
		c.Put(key, []byte("x"))
		if _, ok := c.Get(key); !ok {
			t.Fatalf("key %q did not roundtrip after rekey", key)
		}
	}
	des, err := os.ReadDir(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if filepath.Ext(de.Name()) != entryExt {
			t.Fatalf("unexpected file in cache dir: %q", de.Name())
		}
	}
	if parent, err := os.ReadDir(filepath.Dir(c.Dir())); err == nil {
		for _, de := range parent {
			if !de.IsDir() {
				t.Fatalf("file escaped the cache dir: %q", de.Name())
			}
		}
	}
}

// corruptions maps a scenario name to a mutation of a valid entry file.
var corruptions = map[string]func([]byte) []byte{
	"truncated":     func(b []byte) []byte { return b[:len(b)/2] },
	"bitflip":       func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b },
	"empty":         func([]byte) []byte { return nil },
	"no-newline":    func([]byte) []byte { return []byte("psdc1 deadbeef 4") },
	"bad-magic":     func(b []byte) []byte { return append([]byte("junk!"), b[5:]...) },
	"bad-length":    func(b []byte) []byte { return append([]byte("psdc1 00 99999\n"), b...) },
	"header-only":   func(b []byte) []byte { i := indexNL(b); return b[:i+1] },
	"garbage-bytes": func([]byte) []byte { return []byte{0x00, 0xFF, 0x07} },
}

func indexNL(b []byte) int {
	for i, c := range b {
		if c == '\n' {
			return i
		}
	}
	return len(b) - 1
}

func TestCorruptEntryDegradesToMiss(t *testing.T) {
	for name, mutate := range corruptions {
		t.Run(name, func(t *testing.T) {
			c, m := openTemp(t, 0)
			key := Key("engine", name)
			c.Put(key, []byte(`{"verdict":"secure"}`))
			path := c.path(key)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("entry not on disk: %v", err)
			}
			if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(key); ok {
				t.Fatal("corrupt entry returned a hit")
			}
			if m.Counter("diskcache.corrupt") != 1 {
				t.Fatalf("diskcache.corrupt = %d, want 1", m.Counter("diskcache.corrupt"))
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry not removed")
			}
			// The slot is reusable: a fresh Put hits again.
			c.Put(key, []byte("fresh"))
			if got, ok := c.Get(key); !ok || string(got) != "fresh" {
				t.Fatalf("slot unusable after corruption: got %q ok=%v", got, ok)
			}
		})
	}
}

func TestEvictionHonorsSizeCap(t *testing.T) {
	payload := make([]byte, 1024)
	// Cap fits ~4 encoded entries (payload + ~80-byte header each).
	c, m := openTemp(t, 4*1500)
	for i := 0; i < 10; i++ {
		c.Put(Key("engine", string(rune('a'+i))), payload)
	}
	n, size := c.Stats()
	if cap := int64(4 * 1500); size > cap {
		t.Fatalf("Stats bytes = %d, over cap %d after eviction", size, cap)
	}
	if n >= 10 {
		t.Fatalf("Stats entries = %d, nothing evicted", n)
	}
	if m.Counter("diskcache.evictions") == 0 {
		t.Fatal("diskcache.evictions not bumped")
	}
	// The newest entry must have survived.
	if _, ok := c.Get(Key("engine", string(rune('a'+9)))); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open with empty dir succeeded")
	}
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	c, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open did not create nested dir: %v", err)
	}
	if c.Dir() != dir {
		t.Fatalf("Dir = %q, want %q", c.Dir(), dir)
	}
}
