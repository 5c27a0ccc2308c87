package privacyscope

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"privacyscope/internal/mlsuite"
)

// canonicalReport renders everything observable about a module analysis
// except wall-clock timing, so concurrent runs can be compared
// byte for byte.
func canonicalReport(rep *EnclaveReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "secure=%v verdict=%s findings=%d\n",
		rep.Secure(), rep.Verdict(), rep.TotalFindings())
	for _, r := range rep.Reports {
		fmt.Fprintf(&sb, "fn=%s verdict=%s paths=%d err=%q coverage={completed=%d pruned=%d truncated=%v reason=%s}\n",
			r.Function, r.Verdict(), r.Paths, r.Err,
			r.Coverage.CompletedPaths, r.Coverage.PrunedPaths,
			r.Coverage.Truncated, r.Coverage.Reason)
		for i, f := range r.Findings {
			fmt.Fprintf(&sb, "  finding[%d] kind=%s sink=%s where=%s secret=%s msg=%q\n",
				i, f.Kind, f.Sink, f.Where, f.Secret, f.Message)
			if f.Witness != nil {
				fmt.Fprintf(&sb, "    witness verified=%v inA=%v inB=%v obsA=%v obsB=%v recA=%v recB=%v note=%q\n",
					f.Witness.Verified, f.Witness.InputsA, f.Witness.InputsB,
					f.Witness.ObservedA, f.Witness.ObservedB,
					f.Witness.RecoveredA, f.Witness.RecoveredB, f.Witness.Note)
			}
		}
	}
	return sb.String()
}

// TestConcurrentFacadeSharedOptions pins the facade's concurrency contract
// the privacyscoped daemon relies on: AnalyzeEnclaveContext may run from
// many goroutines at once — over a shared option slice and a shared
// Metrics observer — and every run of the same module must produce
// byte-identical reports. `make check` runs this under -race, so any write
// to shared state inside the engine fails the suite even if the reports
// happen to agree.
func TestConcurrentFacadeSharedOptions(t *testing.T) {
	metrics := NewMetrics()
	shared := []Option{
		WithLoopBound(6),
		WithObserver(metrics),
	}
	modules := []struct {
		name string
		c    string
		edl  string
	}{
		{"Recommender", mlsuite.RecommenderC, mlsuite.RecommenderEDL},
		{"FixedRecommender", mlsuite.FixedRecommenderC, mlsuite.FixedRecommenderEDL},
		{"LinearRegression", mlsuite.LinRegC, mlsuite.LinRegEDL},
	}

	// Reference runs, sequentially.
	want := make(map[string]string, len(modules))
	for _, m := range modules {
		rep, err := AnalyzeEnclaveContext(context.Background(), m.c, m.edl, shared...)
		if err != nil {
			t.Fatalf("%s: reference run: %v", m.name, err)
		}
		want[m.name] = canonicalReport(rep)
	}

	// 4 goroutines per module, all on the same options slice and observer.
	const perModule = 4
	var wg sync.WaitGroup
	type outcome struct {
		name   string
		report string
		err    error
	}
	results := make(chan outcome, len(modules)*perModule)
	for _, m := range modules {
		for i := 0; i < perModule; i++ {
			wg.Add(1)
			go func(name, c, edl string) {
				defer wg.Done()
				rep, err := AnalyzeEnclaveContext(context.Background(), c, edl, shared...)
				if err != nil {
					results <- outcome{name: name, err: err}
					return
				}
				results <- outcome{name: name, report: canonicalReport(rep)}
			}(m.name, m.c, m.edl)
		}
	}
	wg.Wait()
	close(results)

	for r := range results {
		if r.err != nil {
			t.Errorf("%s: concurrent run: %v", r.name, r.err)
			continue
		}
		if r.report != want[r.name] {
			t.Errorf("%s: concurrent report diverged from sequential reference\n--- sequential ---\n%s--- concurrent ---\n%s",
				r.name, want[r.name], r.report)
		}
	}

	// The shared observer aggregated every run without losing counts: the
	// checker span completed once per ECALL per analysis, sequential and
	// concurrent alike.
	checks := metrics.Snapshot().Spans["check"].Count
	var ecalls int64
	for _, m := range modules {
		rep, err := AnalyzeEnclave(m.c, m.edl, shared...)
		if err != nil {
			t.Fatalf("%s: counting ECALLs: %v", m.name, err)
		}
		ecalls += int64(len(rep.Reports))
	}
	// perModule concurrent runs + 1 sequential reference per module.
	if want := ecalls * (perModule + 1); checks != want {
		t.Errorf("shared observer recorded %d checker spans, want %d", checks, want)
	}
}
