package diskcache

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// countingFS counts directory listings, the cost the scan rule amortizes;
// the first failFirst listings fail.
type countingFS struct {
	FS
	readDirs  atomic.Int64
	failFirst int64
}

func (c *countingFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if c.readDirs.Add(1) <= c.failFirst {
		return nil, errors.New("injected ReadDir failure")
	}
	return c.FS.ReadDir(name)
}

func openCounting(t *testing.T, dir string, maxBytes int64) (*Cache, *countingFS) {
	t.Helper()
	cfs := &countingFS{FS: OSFS()}
	c, err := Open(Config{Dir: dir, MaxBytes: maxBytes, FS: cfs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return c, cfs
}

// dirBytes totals the finished entries without going through a handle.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, de := range des {
		if filepath.Ext(de.Name()) != entryExt {
			continue
		}
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// payloadOf returns a payload of exactly n bytes.
func payloadOf(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + byte(i%26)
	}
	return b
}

// TestOpenAndGetNeverScan pins the warm path: opening a handle and reading
// through it lists nothing.
func TestOpenAndGetNeverScan(t *testing.T) {
	dir := t.TempDir()
	w, _ := openCounting(t, dir, 0)
	w.Put(Key("engine", "x"), []byte("payload"))
	r, cfs := openCounting(t, dir, 0)
	if _, ok := r.Get(Key("engine", "x")); !ok {
		t.Fatal("miss on a written entry")
	}
	r.Get(Key("engine", "missing"))
	if n := cfs.readDirs.Load(); n != 0 {
		t.Fatalf("Open+Get listed the directory %d times, want 0", n)
	}
}

// TestFillScansOnce: far below the cap, a handle lists the directory on its
// first Put only, so a Put's cost does not grow with the entry count.
func TestFillScansOnce(t *testing.T) {
	c, cfs := openCounting(t, t.TempDir(), 0)
	payload := payloadOf(1024)
	for i := 0; i < 1000; i++ {
		c.Put(Key("engine", fmt.Sprint(i)), payload)
	}
	if n := cfs.readDirs.Load(); n != 1 {
		t.Fatalf("1000 Puts under the default cap listed the directory %d times, want 1", n)
	}
	if n, _ := c.Stats(); n != 1000 {
		t.Fatalf("Stats entries = %d, want 1000", n)
	}
}

// TestFailedListingIsRetried: a listing that fails teaches the estimate
// nothing, so the next Put lists again; once one succeeds, the fill goes
// back to listing nothing.
func TestFailedListingIsRetried(t *testing.T) {
	cfs := &countingFS{FS: OSFS(), failFirst: 2}
	c, err := Open(Config{Dir: t.TempDir(), FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Put(Key("engine", fmt.Sprint(i)), []byte("payload"))
	}
	if n := cfs.readDirs.Load(); n != 3 {
		t.Fatalf("listed %d times, want 3 (two failures, then one success)", n)
	}
}

// TestSteadyStateScanBound drives a sole writer well past a small cap: the
// directory must fit the cap after every Put, and the scans must stay
// within one per MaxBytes/8 bytes written plus the first Put's. The sizes
// include the case where a scan that stopped evicting at the cap, rather
// than at the low-water mark, would rescan one entry later: 300-byte
// entries under an 8,100-byte cap.
func TestSteadyStateScanBound(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxBytes int64
		size     func(i int) int // payload size of the i-th Put
	}{
		{"uniform-300B-entries", 8100, func(int) int { return 225 }}, // + 75-byte frame header
		{"mixed-sizes", 64 << 10, func(i int) int { return 200 + (i*7919)%1800 }},
		{"entries-near-slack", 16 << 10, func(i int) int { return 1500 + (i*104729)%600 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, cfs := openCounting(t, dir, tc.maxBytes)
			var written int64
			for i := 0; i < 600; i++ {
				payload := payloadOf(tc.size(i))
				written += int64(len(encode(payload)))
				c.Put(Key("engine", fmt.Sprint(i)), payload)
				if got := dirBytes(t, dir); got > tc.maxBytes {
					t.Fatalf("Put %d left %d bytes, over the %d cap", i, got, tc.maxBytes)
				}
			}
			slack := tc.maxBytes / 8
			bound := (written+slack-1)/slack + 1
			if n := cfs.readDirs.Load(); n > bound {
				t.Fatalf("%d scans for %d bytes written, want ≤ %d", n, written, bound)
			}
		})
	}
}

// TestSharedHandlesBound: two handles alternating Puts over one directory
// do not see each other's writes between scans, so the total may pass the
// cap, but by at most 2·(MaxBytes/8 + largest entry), and a Put that scans
// always leaves it under the cap.
func TestSharedHandlesBound(t *testing.T) {
	const maxBytes = 32 << 10
	dir := t.TempDir()
	a, afs := openCounting(t, dir, maxBytes)
	b, bfs := openCounting(t, dir, maxBytes)
	var largest, scans int64
	for i := 0; i < 600; i++ {
		c, cfs := a, afs
		if i%2 == 1 {
			c, cfs = b, bfs
		}
		payload := payloadOf(300 + (i*7919)%1200)
		largest = max(largest, int64(len(encode(payload))))
		before := cfs.readDirs.Load()
		c.Put(Key("engine", fmt.Sprint(i)), payload)
		got := dirBytes(t, dir)
		if limit := maxBytes + 2*(maxBytes/8+largest); got > limit {
			t.Fatalf("Put %d left %d bytes, over the two-handle bound %d", i, got, limit)
		}
		if cfs.readDirs.Load() > before {
			scans++
			if got > maxBytes {
				t.Fatalf("scanning Put %d left %d bytes, over the %d cap", i, got, maxBytes)
			}
		}
	}
	if scans < 4 {
		t.Fatalf("only %d scans over 600 Puts past the cap", scans)
	}
}
