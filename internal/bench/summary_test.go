package bench

import "testing"

// TestSummaryBenchShape pins the call-graph study's acceptance: both
// configurations agree with the inline oracle (SummaryBench errors on
// divergence), every helper is summarized exactly once, and the summary run
// executes at most half the statements inline does on the call-graph-heavy
// module — the headline of the compositional-analysis PR. The bar is on
// the deterministic executed-statement count; the wall-clock ratio is a
// reported column only, since a shared host running other tests in
// parallel cannot hold it.
func TestSummaryBenchShape(t *testing.T) {
	rows, err := SummaryBench()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.SummariesComputed != int64(r.Helpers) {
			t.Errorf("%s: computed %d summaries, want one per helper (%d)",
				r.Name, r.SummariesComputed, r.Helpers)
		}
		if r.Findings == 0 {
			t.Errorf("%s: no findings — the secret chain should leak", r.Name)
		}
		if r.Paths < 2*r.Entries {
			t.Errorf("%s: %d paths over %d entries, want the secret branch to fork", r.Name, r.Paths, r.Entries)
		}
	}
	// The shared-helpers configuration is the acceptance row: four entry
	// points re-inline the same doubling chain on both arms of a secret
	// branch, while the summary run builds the chain once.
	shared := rows[1]
	if shared.StepReduction < 2 {
		t.Errorf("shared-helpers executed-statement reduction %.2fx < 2x (inline %d, summary %d)",
			shared.StepReduction, shared.InlineSteps, shared.SummarySteps)
	}
}
