package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"privacyscope/internal/batch"
	"privacyscope/internal/diskcache"
	"privacyscope/internal/mlsuite"
	"privacyscope/internal/obs"
)

// BatchBenchRow is one mode of the cold-vs-warm batch study: how many
// engine analyses a whole-project run actually pays with the persistent
// result cache in front of it.
type BatchBenchRow struct {
	// Mode: "cold" (empty cache), "warm" (nothing changed), or
	// "warm-1-modified" (one unit's source edited between runs).
	Mode string
	// Units discovered in the project tree.
	Units int
	// EngineAnalyses the run executed (batch.units.analyzed).
	EngineAnalyses int64
	// DiskHits served from the persistent cache (diskcache.hits).
	DiskHits int64
	// Seconds of whole-run wall clock.
	Seconds float64
}

// batchBenchTree materializes the study's project: the three Table V ML
// modules plus the four Table VI micro-cases, as (c, edl) units.
func batchBenchTree(root string) error {
	write := func(base, c, e string) error {
		if err := os.WriteFile(filepath.Join(root, base+".c"), []byte(c), 0o644); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(root, base+".edl"), []byte(e), 0o644)
	}
	for _, m := range mlsuite.Modules() {
		if err := write(strings.ToLower(m.Name), m.C, m.EDL); err != nil {
			return err
		}
	}
	for _, tc := range tableVISuite {
		edl := "enclave {\n    trusted {\n        public int f([in] int *secrets, [out] int *output);\n    };\n};\n"
		if err := write("micro_"+tc.name, tc.src, edl); err != nil {
			return err
		}
	}
	return nil
}

// BatchBench measures the incremental-rerun story end to end: a cold
// project run, a fully warm rerun, and a rerun after one source edit. The
// acceptance shape — a warm rerun with one modified unit pays ≥5× fewer
// engine analyses than cold — is visible directly in the EngineAnalyses
// column.
func BatchBench() ([]BatchBenchRow, error) {
	root, err := os.MkdirTemp("", "psbatchbench-src-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	cacheDir, err := os.MkdirTemp("", "psbatchbench-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cacheDir)
	if err := batchBenchTree(root); err != nil {
		return nil, err
	}

	run := func(mode string) (BatchBenchRow, error) {
		m := obs.NewMetrics()
		cache, err := diskcache.Open(diskcache.Config{Dir: cacheDir, Observer: m})
		if err != nil {
			return BatchBenchRow{}, err
		}
		units, err := batch.Discover(root)
		if err != nil {
			return BatchBenchRow{}, err
		}
		start := time.Now()
		batch.Run(context.Background(), root, units, batch.Config{Cache: cache, Observer: m})
		return BatchBenchRow{
			Mode:           mode,
			Units:          len(units),
			EngineAnalyses: m.Counter("batch.units.analyzed"),
			DiskHits:       m.Counter("diskcache.hits"),
			Seconds:        time.Since(start).Seconds(),
		}, nil
	}

	var rows []BatchBenchRow
	cold, err := run("cold")
	if err != nil {
		return nil, err
	}
	warm, err := run("warm")
	if err != nil {
		return nil, err
	}
	// Edit one unit: append a non-ECALL helper, changing the content hash
	// without changing any analyzed entry point.
	target := filepath.Join(root, "micro_clean.c")
	src, err := os.ReadFile(target)
	if err != nil {
		return nil, err
	}
	edited := append(src, []byte("\nint bench_pad(int x) {\n    return x + 1;\n}\n")...)
	if err := os.WriteFile(target, edited, 0o644); err != nil {
		return nil, err
	}
	mod, err := run("warm-1-modified")
	if err != nil {
		return nil, err
	}
	rows = append(rows, cold, warm, mod)
	return rows, nil
}

// RenderBatchBench formats the cold-vs-warm table.
func RenderBatchBench(rows []BatchBenchRow) string {
	var sb strings.Builder
	sb.WriteString("Batch analysis — cold vs. warm project runs (persistent result cache)\n")
	sb.WriteString(fmt.Sprintf("%-18s %7s %16s %10s %12s\n",
		"Mode", "units", "engine-analyses", "disk-hits", "time(s)"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-18s %7d %16d %10d %12.6f\n",
			r.Mode, r.Units, r.EngineAnalyses, r.DiskHits, r.Seconds))
	}
	return sb.String()
}
