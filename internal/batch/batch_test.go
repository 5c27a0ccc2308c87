package batch

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privacyscope"
	"privacyscope/internal/diskcache"
	"privacyscope/internal/faultinject"
	"privacyscope/internal/obs"
)

const (
	leakC = `int vault_export(int *secrets, int *output)
{
    output[0] = secrets[0] + 4;
    return 0;
}
`
	leakEDL = `enclave {
    trusted {
        public int vault_export([in] int *secrets, [out] int *output);
    };
};
`
	maskC = `int mask_sum(int *secrets, int *output)
{
    output[0] = secrets[0] + secrets[1] + secrets[2];
    return 0;
}
`
	maskEDL = `enclave {
    trusted {
        public int mask_sum([in] int *secrets, [out] int *output);
    };
};
`
	gateC = `int gate_check(int *secrets, int *output)
{
    if (secrets[0] == 7) {
        output[0] = 1;
    } else {
        output[0] = 0;
    }
    return 0;
}
`
	gateEDL = `enclave {
    trusted {
        public int gate_check([in] int *secrets, [out] int *output);
    };
};
`
)

// writeUnit lays one unit's files under dir.
func writeUnit(t *testing.T, dir, base, src, edl string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, base)), 0o755); err != nil {
		t.Fatal(err)
	}
	if src != "" {
		if err := os.WriteFile(filepath.Join(dir, base+".c"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if edl != "" {
		if err := os.WriteFile(filepath.Join(dir, base+".edl"), []byte(edl), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// projectTree builds the canonical three-unit fixture: one explicit leak,
// one implicit leak, one secure masked aggregate.
func projectTree(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeUnit(t, dir, "vault", leakC, leakEDL)
	writeUnit(t, dir, "gate", gateC, gateEDL)
	writeUnit(t, dir, "sub/masksum", maskC, maskEDL)
	return dir
}

func discover(t *testing.T, dir string) []Unit {
	t.Helper()
	units, err := Discover(dir)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	return units
}

func TestDiscover(t *testing.T) {
	dir := projectTree(t)
	// An unpaired .c (no .edl sibling) is harness code, not a unit.
	writeUnit(t, dir, "helper", "int helper(void) { return 0; }\n", "")
	// A unit with a sibling rule file picks it up.
	writeUnit(t, dir, "ruled", maskC, maskEDL)
	rules := `<sgx><item kind="func_arg"><name>mask_sum</name><arg>0</arg></item></sgx>`
	if err := os.WriteFile(filepath.Join(dir, "ruled.xml"), []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}

	units := discover(t, dir)
	var names []string
	for _, u := range units {
		names = append(names, u.Name)
	}
	want := []string{"gate", "ruled", "sub/masksum", "vault"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Discover names = %v, want %v", names, want)
	}
	for _, u := range units {
		if u.Source == "" || u.EDL == "" {
			t.Fatalf("unit %s missing content", u.Name)
		}
		if u.Name == "ruled" && u.Rules != rules {
			t.Fatalf("unit ruled did not pick up its rule file: %q", u.Rules)
		}
		if u.Name != "ruled" && u.Rules != "" {
			t.Fatalf("unit %s has unexpected rules", u.Name)
		}
	}
}

// findingsJSON canonicalizes a report's findings for byte comparison:
// unit name → marshaled findings list (DurationMs and metrics excluded by
// construction).
func findingsJSON(t *testing.T, rep *ProjectReport) string {
	t.Helper()
	type unitFindings struct {
		Name     string                         `json:"name"`
		Verdict  string                         `json:"verdict"`
		Findings []privacyscope.EnvelopeFinding `json:"findings"`
	}
	var all []unitFindings
	for _, u := range rep.Units {
		uf := unitFindings{Name: u.Unit.Name, Verdict: u.Verdict().String()}
		if u.Envelope != nil {
			uf.Findings = u.Envelope.Findings
		}
		all = append(all, uf)
	}
	b, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunDifferential is the cached-vs-uncached differential: the same
// project run with no cache, with a cold cache, and with a warm cache must
// produce byte-identical findings and verdicts.
func TestRunDifferential(t *testing.T) {
	dir := projectTree(t)
	units := discover(t, dir)

	uncached := Run(context.Background(), dir, units, Config{Jobs: 2})

	cache, err := diskcache.Open(diskcache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cold := Run(context.Background(), dir, units, Config{Jobs: 2, Cache: cache})
	warm := Run(context.Background(), dir, units, Config{Jobs: 2, Cache: cache})

	want := findingsJSON(t, uncached)
	if got := findingsJSON(t, cold); got != want {
		t.Errorf("cold cached run diverged from uncached run:\n got %s\nwant %s", got, want)
	}
	if got := findingsJSON(t, warm); got != want {
		t.Errorf("warm cached run diverged from uncached run:\n got %s\nwant %s", got, want)
	}

	for _, u := range cold.Units {
		if u.Cached {
			t.Errorf("cold run served %s from cache", u.Unit.Name)
		}
	}
	for _, u := range warm.Units {
		if !u.Cached {
			t.Errorf("warm run recomputed %s", u.Unit.Name)
		}
	}
	if uncached.Verdict() != privacyscope.VerdictFindings {
		t.Fatalf("fixture verdict = %s, want findings", uncached.Verdict())
	}
	if warm.Verdict() != uncached.Verdict() {
		t.Fatalf("warm verdict %s != uncached %s", warm.Verdict(), uncached.Verdict())
	}
}

// copyTree copies the checked-in examples/project tree into a writable
// temp dir.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying %s: %v", src, err)
	}
	return dst
}

// TestIncrementalRerun is the acceptance pin: after a cold run over the
// examples/project tree, modifying ONE unit and rerunning must analyze
// only that unit — at least 5× fewer engine analyses than the cold run —
// with the savings visible on the diskcache hit counters.
func TestIncrementalRerun(t *testing.T) {
	root := copyTree(t, filepath.Join("..", "..", "examples", "project"))
	cacheDir := t.TempDir()

	run := func() (*ProjectReport, *obs.Metrics) {
		m := obs.NewMetrics()
		cache, err := diskcache.Open(diskcache.Config{Dir: cacheDir, Observer: m})
		if err != nil {
			t.Fatal(err)
		}
		units := discover(t, root)
		rep := Run(context.Background(), root, units, Config{Cache: cache, Observer: m})
		return rep, m
	}

	cold, coldM := run()
	coldAnalyses := coldM.Counter("batch.units.analyzed")
	if int(coldAnalyses) != len(cold.Units) {
		t.Fatalf("cold run analyzed %d of %d units", coldAnalyses, len(cold.Units))
	}
	if len(cold.Units) < 6 {
		t.Fatalf("examples/project has %d units; need ≥6 for the 5× bound", len(cold.Units))
	}

	// Modify one function in one unit.
	target := filepath.Join(root, "vault.c")
	src, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	modified := strings.Replace(string(src), "secrets[0] + 4", "secrets[0] + 11", 1)
	if modified == string(src) {
		t.Fatal("modification did not apply")
	}
	if err := os.WriteFile(target, []byte(modified), 0o644); err != nil {
		t.Fatal(err)
	}

	warm, warmM := run()
	warmAnalyses := warmM.Counter("batch.units.analyzed")
	if warmAnalyses != 1 {
		t.Fatalf("warm run analyzed %d units, want exactly the 1 modified", warmAnalyses)
	}
	if hits := warmM.Counter("diskcache.hits"); int(hits) != len(warm.Units)-1 {
		t.Fatalf("diskcache.hits = %d on warm run, want %d", hits, len(warm.Units)-1)
	}
	if coldAnalyses < 5*warmAnalyses {
		t.Fatalf("cold/warm analysis ratio %d/%d < 5×", coldAnalyses, warmAnalyses)
	}
	if cold.Verdict() != warm.Verdict() {
		t.Fatalf("verdict changed across rerun: %s → %s", cold.Verdict(), warm.Verdict())
	}
}

// TestFaultInjectionDegradesToRecompute arms disk-full, short-write and
// corrupt-entry faults under a batch run: the run's verdicts must be
// identical to a fault-free run (a cache problem never fails an analysis),
// and the next run must detect the damaged entries, count them corrupt,
// and recompute exactly those units.
func TestFaultInjectionDegradesToRecompute(t *testing.T) {
	dir := projectTree(t)
	units := discover(t, dir)

	clean := Run(context.Background(), dir, units, Config{Jobs: 1})
	want := findingsJSON(t, clean)

	m := obs.NewMetrics()
	ffs := faultinject.NewDiskFS(nil).FailWriteAt(1).ShortWriteAt(2).CorruptAt(3)
	cache, err := diskcache.Open(diskcache.Config{Dir: t.TempDir(), FS: ffs, Observer: m})
	if err != nil {
		t.Fatal(err)
	}
	// Jobs: 1 makes the write order deterministic (unit order), so fault
	// ordinals 1..3 land on vault→gate→sub/masksum... which is Units order.
	cfg := Config{Jobs: 1, Cache: cache, Observer: m}

	faulty := Run(context.Background(), dir, units, cfg)
	if got := findingsJSON(t, faulty); got != want {
		t.Errorf("findings diverged under disk faults:\n got %s\nwant %s", got, want)
	}
	if faulty.Verdict() != clean.Verdict() {
		t.Errorf("verdict under faults = %s, want %s", faulty.Verdict(), clean.Verdict())
	}
	if tripped := ffs.Tripped(); tripped != 3 {
		t.Fatalf("faults tripped = %d, want 3", tripped)
	}
	if errs := m.Counter("diskcache.errors"); errs != 1 {
		t.Errorf("diskcache.errors = %d after disk-full, want 1", errs)
	}

	// Second run: the disk-full unit simply missed (nothing persisted);
	// the short-write and corrupt-entry units must be detected as corrupt
	// and recomputed. No unit may fail.
	m2 := obs.NewMetrics()
	cache2, err := diskcache.Open(diskcache.Config{Dir: cache.Dir(), Observer: m2})
	if err != nil {
		t.Fatal(err)
	}
	second := Run(context.Background(), dir, units, Config{Jobs: 1, Cache: cache2, Observer: m2})
	if got := findingsJSON(t, second); got != want {
		t.Errorf("findings diverged on post-fault rerun:\n got %s\nwant %s", got, want)
	}
	if corrupt := m2.Counter("diskcache.corrupt"); corrupt != 2 {
		t.Errorf("diskcache.corrupt = %d on rerun, want 2 (short write + byte flip)", corrupt)
	}
	if analyzed := m2.Counter("batch.units.analyzed"); analyzed != 3 {
		t.Errorf("rerun analyzed %d units, want 3 (disk-full + 2 corrupt)", analyzed)
	}
	for _, u := range second.Units {
		if u.Err != "" {
			t.Errorf("unit %s failed after cache faults: %s", u.Unit.Name, u.Err)
		}
	}

	// Third run: the recomputes re-persisted clean entries, so everything
	// now hits.
	m3 := obs.NewMetrics()
	cache3, err := diskcache.Open(diskcache.Config{Dir: cache.Dir(), Observer: m3})
	if err != nil {
		t.Fatal(err)
	}
	Run(context.Background(), dir, units, Config{Jobs: 1, Cache: cache3, Observer: m3})
	if cached := m3.Counter("batch.units.cached"); int(cached) != len(units) {
		t.Errorf("third run served %d of %d units from cache", cached, len(units))
	}
}

// heavyC needs thousands of engine steps, so a cancelled context truncates
// it (the engine polls ctx every 32 steps; the trivial fixtures finish
// inside one interval and would legitimately complete — and cache).
const (
	heavyC = `int heavy(int *secrets, int *output)
{
    int i = 0;
    int acc = 0;
    while (i < 2000) { acc = acc + i; i++; }
    output[0] = 7;
    return 0;
}
`
	heavyEDL = `enclave {
    trusted {
        public int heavy([in] int *secrets, [out] int *output);
    };
};
`
)

// TestCancelledEnvelopesNotCached pins the daemon's rule at the batch
// layer: a unit truncated by ctx cancellation must not be persisted, so a
// rerun without the cancellation explores in full.
func TestCancelledEnvelopesNotCached(t *testing.T) {
	dir := t.TempDir()
	writeUnit(t, dir, "heavy", heavyC, heavyEDL)
	units := discover(t, dir)
	cache, err := diskcache.Open(diskcache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the heavy unit degrades to partial coverage
	rep := Run(ctx, dir, units, Config{Jobs: 1, Cache: cache})
	if v := rep.Units[0].Verdict(); v != privacyscope.VerdictInconclusive {
		t.Fatalf("cancelled heavy unit verdict = %s, want inconclusive", v)
	}
	if env := rep.Units[0].Envelope; env == nil || !env.Cancelled() {
		t.Fatal("cancelled heavy unit envelope does not report cancellation")
	}
	if n, _ := cache.Stats(); n != 0 {
		t.Fatalf("cancelled run persisted %d entries, want 0", n)
	}

	m := obs.NewMetrics()
	cache2, err := diskcache.Open(diskcache.Config{Dir: cache.Dir(), Observer: m})
	if err != nil {
		t.Fatal(err)
	}
	full := Run(context.Background(), dir, units, Config{Jobs: 1, Cache: cache2, Observer: m})
	if m.Counter("batch.units.cached") != 0 {
		t.Fatal("rerun hit cache entries a cancelled run should not have written")
	}
	if full.Verdict() != privacyscope.VerdictSecure {
		t.Fatalf("full rerun verdict = %s, want secure", full.Verdict())
	}
	// The full run's complete envelope DID persist.
	if n, _ := cache2.Stats(); n != 1 {
		t.Fatalf("full rerun persisted %d entries, want 1", n)
	}
}

// TestModuleErrorKeepsSlot pins the fail-soft shape: a unit that cannot
// parse keeps its report slot as an error result and does not poison the
// aggregate beyond VerdictError dominance rules.
func TestModuleErrorKeepsSlot(t *testing.T) {
	dir := t.TempDir()
	writeUnit(t, dir, "broken", "int broken( {{{\n", leakEDL)
	writeUnit(t, dir, "masksum", maskC, maskEDL)
	units := discover(t, dir)
	if len(units) != 2 {
		t.Fatalf("discovered %d units, want 2", len(units))
	}
	m := obs.NewMetrics()
	rep := Run(context.Background(), dir, units, Config{Observer: m})
	if rep.Units[0].Err == "" {
		t.Fatal("broken unit did not surface its module error")
	}
	if rep.Units[0].Verdict() != privacyscope.VerdictError {
		t.Fatalf("broken unit verdict = %s, want error", rep.Units[0].Verdict())
	}
	if rep.Units[1].Verdict() != privacyscope.VerdictSecure {
		t.Fatalf("intact unit verdict = %s, want secure", rep.Units[1].Verdict())
	}
	if rep.Verdict() != privacyscope.VerdictError {
		t.Fatalf("aggregate = %s, want error (error dominates secure)", rep.Verdict())
	}
	if m.Counter("batch.units.errors") != 1 {
		t.Fatalf("batch.units.errors = %d, want 1", m.Counter("batch.units.errors"))
	}
	stats := rep.Stats()
	if stats.Errors != 1 || stats.Units != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}
