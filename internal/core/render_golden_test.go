package core_test

import (
	"testing"

	"privacyscope/internal/core"
)

// TestBox1ReportGolden pins the exact Box 1 rendering for Listing 1,
// byte for byte. TestBox1Report checks the report's *content*; this test
// freezes its *presentation* so an accidental format change (reordered
// findings, altered recovery formula, renamed verdict lines) fails loudly
// instead of silently drifting from the paper's box. Duration is the one
// wall-clock field in the rendering, so it is zeroed before comparing.
func TestBox1ReportGolden(t *testing.T) {
	report := check(t, listing1, "enclave_process_data", listing1Params(), core.DefaultOptions())
	report.Duration = 0

	const golden = `=== PrivacyScope report: enclave_process_data ===
paths explored: 2, states: 8, regions: 9, secrets: 2, time: 0s

WARNING 1: explicit information leakage via [out] parameter
  sink:   output[0] (line 0)
  secret: secrets[0]
  value:  output[0] = secrets[0] + 101
  recovery: secrets[0] = (observed - 101) / 1
  witness: inputs map[secrets[0]:0 secrets[1]:0] vs map[secrets[0]:5 secrets[1]:0] → observed 101 vs 106, recovered 0 vs 5

WARNING 2: implicit information leakage via return value
  sink:   return (line 7)
  secret: secrets[1]
  branches on secrets[1] reveal 0 vs 1
  path condition: secrets[1] == 0
  witness: inputs map[secrets[0]:0 secrets[1]:0] vs map[secrets[0]:0 secrets[1]:1] → observed 0 vs 1
`
	if got := report.Render(); got != golden {
		t.Errorf("Box 1 rendering drifted.\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

// TestErrorReportRenderGolden pins the fail-soft placeholder rendering: an
// entry point that panicked or errored keeps its slot with an explicit
// "not analyzed" verdict line.
func TestErrorReportRenderGolden(t *testing.T) {
	report := core.ErrorReport("enclave_bad", "panic during analysis: boom")

	const golden = `=== PrivacyScope report: enclave_bad ===
ANALYSIS ERROR: panic during analysis: boom
verdict: error — this entry point was not analyzed; sibling entry points were
`
	if got := report.Render(); got != golden {
		t.Errorf("error rendering drifted.\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}
