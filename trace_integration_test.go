package privacyscope

import (
	"bytes"
	"encoding/json"
	"testing"

	"privacyscope/internal/mlsuite"
)

func countSpans(spans []*TraceSpan, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
		n += countSpans(s.Spans, name)
	}
	return n
}

// TestTracerUnderParallelism: a Tracer attached through the facade with
// WithParallelism(4) observes the Recommender's three ECALLs on concurrent
// jobs, each starting and ending its spans on its own goroutine, and must
// keep parent/child links consistent. Run under -race in tier 1.5.
func TestTracerUnderParallelism(t *testing.T) {
	m := NewMetrics()
	tr := NewTracer()
	rep, err := AnalyzeEnclave(mlsuite.RecommenderC, mlsuite.RecommenderEDL,
		WithObserver(MultiObserver(m, tr)), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reports) != 3 {
		t.Fatalf("reports = %d, want one per ECALL (3)", len(rep.Reports))
	}

	snap := tr.Snapshot()
	if snap.DroppedSpans != 0 {
		t.Fatalf("default cap dropped %d spans on a small module", snap.DroppedSpans)
	}
	// One check root per ECALL, each with its engine child exactly once —
	// concurrent jobs must not detach, merge or duplicate the phase
	// structure.
	if n := countSpans(snap.Spans, "check"); n != len(rep.Reports) {
		t.Fatalf("check spans = %d, want %d", n, len(rep.Reports))
	}
	roots := 0
	for _, s := range snap.Spans {
		if s.Name != "check" {
			continue
		}
		roots++
		if countSpans(s.Spans, "symexec") != 1 {
			t.Fatalf("check/symexec not nested exactly once: %+v", s)
		}
	}
	if roots != len(rep.Reports) {
		t.Fatalf("check roots = %d, want %d", roots, len(rep.Reports))
	}
	// Metrics and Tracer observed the same completions for the span names
	// both track.
	ms := m.Snapshot()
	if int(ms.Spans["check"].Count) != len(rep.Reports) {
		t.Fatalf("metrics check count = %d, want %d", ms.Spans["check"].Count, len(rep.Reports))
	}

	// The whole snapshot must round-trip as JSON (it embeds in envelopes).
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
}

// TestTracerCapUnderParallelism: a tiny trace buffer under concurrent
// per-ECALL jobs degrades to counted drops — never an error, never a
// missing analysis result.
func TestTracerCapUnderParallelism(t *testing.T) {
	tr := NewTracer(WithTraceCap(3))
	rep, err := AnalyzeEnclave(mlsuite.RecommenderC, mlsuite.RecommenderEDL,
		WithObserver(tr), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reports) != 3 || rep.Verdict() == VerdictError {
		t.Fatalf("analysis degraded under trace cap: %d reports, verdict %v", len(rep.Reports), rep.Verdict())
	}
	snap := tr.Snapshot()
	if len(snap.Spans) > 3 {
		t.Fatalf("recorded %d spans past cap 3", len(snap.Spans))
	}
	if snap.DroppedSpans == 0 {
		t.Fatalf("expected counted drops past the cap")
	}
}

// TestMetricsOnlyHotPathAllocationFree pins the acceptance criterion that
// tracing's existence adds no allocations to a Metrics-only run's statement
// loop: the engine's per-statement observer calls (counter bumps on warm
// counters, distribution samples) stay allocation-free, with and without a
// no-op-collapsing MultiObserver in front.
func TestMetricsOnlyHotPathAllocationFree(t *testing.T) {
	m := NewMetrics()
	m.Add("symexec.steps", 1) // warm the counter cell
	m.Observe("symexec.path.depth", 1)
	direct := testing.AllocsPerRun(200, func() {
		m.Add("symexec.steps", 1)
	})
	if direct != 0 {
		t.Errorf("warm Metrics.Add allocates %v per call", direct)
	}
	ob := MultiObserver(m) // collapses to passthrough: the Metrics-only run
	through := testing.AllocsPerRun(200, func() {
		ob.Add("symexec.steps", 1)
	})
	if through != 0 {
		t.Errorf("MultiObserver passthrough Add allocates %v per call", through)
	}
	tr := NewTracer()
	fan := MultiObserver(m, tr)
	fanned := testing.AllocsPerRun(200, func() {
		fan.Add("symexec.steps", 1) // Tracer.Add is a deliberate no-op
	})
	if fanned != 0 {
		t.Errorf("Multi(Metrics,Tracer) Add allocates %v per call", fanned)
	}
}
