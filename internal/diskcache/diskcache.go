// Package diskcache is the disk-persistent, content-addressed result-cache
// tier below the in-memory caches: the privacyscoped daemon layers it under
// its LRU so restarts come back warm, and the batch driver (internal/batch)
// uses it to make a project rerun cost roughly one changed unit instead of
// one project.
//
// Contract:
//
//   - Keys are content addresses (see Key): the SHA-256 of everything that
//     determines the analysis outcome, engine fingerprint first, so an
//     engine upgrade can never serve stale results.
//   - Writes are atomic: payloads land in a unique temp file and are
//     renamed into place, so a concurrent reader — another goroutine or
//     another process sharing the directory — sees either the whole entry
//     or no entry, never a torn one.
//   - Loads are corruption-tolerant: every entry carries a checksum
//     header, and a truncated, bit-flipped or mis-framed entry degrades to
//     a cache miss (and is removed) instead of an error. A cache problem
//     must never change a verdict, only cost a recompute.
//   - The directory is size-capped without a scan per write. Each handle
//     keeps a size estimate: base, the payload total its last directory
//     scan left behind, and pending, the bytes it has put since. Put lists
//     the directory only on the handle's first Put, once base+pending
//     passes MaxBytes, or once pending passes MaxBytes/8. A scan that finds
//     the directory over the low-water mark MaxBytes−MaxBytes/8 evicts the
//     oldest entries (by mtime, refreshed on hit) down to it; that
//     hysteresis is what keeps a cache sitting at its cap from scanning on
//     every Put, and lets a sole writer scan at most once per MaxBytes/8
//     bytes written. Open never scans, so a run that only reads lists
//     nothing.
//   - A sole writer never leaves the directory over MaxBytes when a Put
//     returns: the estimate can only over-count (a re-put key counts
//     twice), which brings a scan forward, never pushes it back, and a
//     listing that fails leaves it to the next Put to list again. Handles
//     that share a directory, in one process or several, do not see each
//     other's writes until they scan, so with k handles the total can pass
//     MaxBytes by at most k·(MaxBytes/8 + one entry); every scan brings it
//     back under the low-water mark.
//
// Telemetry flows through internal/obs under the diskcache.* names
// (hits, misses, puts, evictions, corrupt, errors), so the daemon's
// existing Prometheus exposition picks the tier up for free. See
// docs/BATCH.md for the on-disk layout and invalidation rules.
package diskcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"privacyscope/internal/obs"
)

// DefaultMaxBytes caps the cache directory when Config.MaxBytes is unset:
// envelopes are a few KiB, so this holds tens of thousands of entries.
const DefaultMaxBytes = 256 << 20

// entryExt marks finished entries; temp files use tmpExt and are invisible
// to Get and to the size accounting.
const (
	entryExt = ".psc"
	tmpExt   = ".tmp"
)

// magic heads every entry: format name + version. Bump it when the framing
// changes so old entries degrade to misses instead of misparses.
const magic = "psdc1"

// FS is the filesystem seam the cache writes through. Production uses
// OSFS; internal/faultinject wraps it to inject disk-full, short-write and
// corrupt-entry faults deterministically.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	Chtimes(name string, atime, mtime time.Time) error
}

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) {
	return os.ReadDir(name)
}
func (osFS) Chtimes(name string, atime, mtime time.Time) error {
	return os.Chtimes(name, atime, mtime)
}

// OSFS returns the real-filesystem implementation.
func OSFS() FS { return osFS{} }

// Config sizes and instruments a cache.
type Config struct {
	// Dir is the cache directory; created if missing.
	Dir string
	// MaxBytes caps the payload total (≤0: DefaultMaxBytes).
	MaxBytes int64
	// FS overrides the filesystem (nil: OSFS). Tests inject faults here.
	FS FS
	// Observer receives the diskcache.* counters (nil: no-op).
	Observer obs.Observer
}

// Cache is a content-addressed persistent cache. A nil *Cache is a valid
// disabled cache: Get always misses and Put drops, so callers thread one
// pointer without nil checks.
type Cache struct {
	dir      string
	maxBytes int64
	fs       FS
	obs      obs.Observer

	seq atomic.Uint64

	// mu guards the size estimate and serializes eviction scans; Get and
	// Put themselves need no lock — atomicity comes from write-then-rename.
	mu      sync.Mutex
	scanned bool  // set by the handle's first scan
	base    int64 // payload total the last scan left behind
	pending int64 // bytes put since that scan began
}

// Open creates (if needed) and returns the cache over cfg.Dir.
func Open(cfg Config) (*Cache, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("diskcache: empty directory")
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.FS == nil {
		cfg.FS = OSFS()
	}
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	return &Cache{
		dir:      cfg.Dir,
		maxBytes: cfg.MaxBytes,
		fs:       cfg.FS,
		obs:      obs.Or(cfg.Observer),
	}, nil
}

// Key builds a content-address from the engine fingerprint and the parts
// that determine an analysis outcome (sources, interface, rules, canonical
// options JSON). Each part is length-framed before hashing so no two
// distinct part lists can collide by concatenation.
func Key(engine string, parts ...string) string {
	h := sha256.New()
	write := func(s string) {
		fmt.Fprintf(h, "%d:", len(s))
		io.WriteString(h, s)
	}
	write(engine)
	for _, p := range parts {
		write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// path maps a key onto its entry file. Keys are expected to be Key-style
// hex; anything else (defensively) is re-hashed so a hostile key cannot
// escape the cache directory.
func (c *Cache) path(key string) string {
	for _, r := range key {
		ok := (r >= '0' && r <= '9') || (r >= 'a' && r <= 'f')
		if !ok {
			key = Key("rekey", key)
			break
		}
	}
	if len(key) > 128 {
		key = Key("rekey", key)
	}
	return filepath.Join(c.dir, key+entryExt)
}

// encode frames a payload: "psdc1 <sha256> <len>\n" + payload.
func encode(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	head := fmt.Sprintf("%s %x %d\n", magic, sum, len(payload))
	return append([]byte(head), payload...)
}

// decode verifies the frame and returns the payload; ok is false for any
// corruption (bad magic, bad length, checksum mismatch).
func decode(data []byte) ([]byte, bool) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, false
	}
	fields := bytes.Fields(data[:nl])
	if len(fields) != 3 || string(fields[0]) != magic {
		return nil, false
	}
	n, err := strconv.Atoi(string(fields[2]))
	if err != nil || n != len(data)-nl-1 {
		return nil, false
	}
	payload := data[nl+1:]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != string(fields[1]) {
		return nil, false
	}
	return payload, true
}

// Get returns the stored payload for key. Any failure — missing entry,
// unreadable file, corrupt frame — is a miss; a corrupt entry additionally
// bumps diskcache.corrupt and is removed so it cannot mis-hit forever.
func (c *Cache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	path := c.path(key)
	data, err := c.fs.ReadFile(path)
	if err != nil {
		c.obs.Add("diskcache.misses", 1)
		return nil, false
	}
	payload, ok := decode(data)
	if !ok {
		c.obs.Add("diskcache.corrupt", 1)
		c.obs.Add("diskcache.misses", 1)
		c.fs.Remove(path)
		return nil, false
	}
	// Refresh recency for the size-capped eviction; purely advisory.
	now := time.Now()
	c.fs.Chtimes(path, now, now)
	c.obs.Add("diskcache.hits", 1)
	return payload, true
}

// Put stores payload under key. It never fails the caller: a write or
// rename error bumps diskcache.errors and degrades to "not cached".
// Re-putting a key atomically replaces its entry.
func (c *Cache) Put(key string, payload []byte) {
	if c == nil {
		return
	}
	path := c.path(key)
	tmp := fmt.Sprintf("%s%s.%d.%d", path, tmpExt, os.Getpid(), c.seq.Add(1))
	data := encode(payload)
	if err := c.fs.WriteFile(tmp, data, 0o644); err != nil {
		c.obs.Add("diskcache.errors", 1)
		c.fs.Remove(tmp)
		return
	}
	if err := c.fs.Rename(tmp, path); err != nil {
		c.obs.Add("diskcache.errors", 1)
		c.fs.Remove(tmp)
		return
	}
	c.obs.Add("diskcache.puts", 1)
	c.account(int64(len(data)))
}

// account adds n freshly put bytes to the size estimate and scans when the
// cap could be at stake (see the package doc for the rule and its bounds).
// The estimate is updated after the rename and the scan holds mu, so an
// entry a scan did not list is always still in pending: it can be counted
// twice, never missed.
func (c *Cache) account(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending += n
	slack := c.maxBytes / 8
	if c.scanned && c.base+c.pending <= c.maxBytes && c.pending <= slack {
		return
	}
	total, err := c.evict(c.maxBytes - slack)
	if err != nil {
		return // keep the estimate; the next Put lists again
	}
	c.scanned, c.base, c.pending = true, total, 0
}

// entryInfo is one finished entry during an eviction/accounting scan.
type entryInfo struct {
	path  string
	size  int64
	mtime time.Time
}

// scan lists finished entries with sizes and mtimes.
func (c *Cache) scan() ([]entryInfo, error) {
	des, err := c.fs.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	var out []entryInfo
	for _, de := range des {
		if de.IsDir() || filepath.Ext(de.Name()) != entryExt {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		out = append(out, entryInfo{
			path:  filepath.Join(c.dir, de.Name()),
			size:  info.Size(),
			mtime: info.ModTime(),
		})
	}
	return out, nil
}

// evict lists the directory and, when its payload total is over lowWater,
// removes the oldest entries until it is not; it returns the total left,
// or the listing's error.
// Evicting whenever the total is over the mark, not only over the cap, is
// what spaces the scans out: a scan that left the total between the two
// would make the next one due as soon as the total passes the cap, which
// can be one entry later.
func (c *Cache) evict(lowWater int64) (int64, error) {
	entries, err := c.scan()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		total += e.size
	}
	if total <= lowWater {
		return total, nil
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	for _, e := range entries {
		if total <= lowWater {
			break
		}
		if err := c.fs.Remove(e.path); err == nil {
			total -= e.size
			c.obs.Add("diskcache.evictions", 1)
		}
	}
	return total, nil
}

// Stats counts the finished entries and totals their on-disk sizes in one
// directory scan (intended for stats endpoints and tests, not hot paths).
func (c *Cache) Stats() (entries int, bytes int64) {
	if c == nil {
		return 0, 0
	}
	es, _ := c.scan() // an unlistable directory reads as empty
	for _, e := range es {
		bytes += e.size
	}
	return len(es), bytes
}

// Dir returns the cache directory ("" for a nil cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}
