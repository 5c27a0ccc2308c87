package batch

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"privacyscope"
)

// TestGoldenProjectReportSummaryMode pins batch compatibility with configs
// from before summaries were always on: options that still carry
// "summaries" decode, key every unit like the defaults, and reproduce the
// project goldens byte for byte (report text and JSON envelope) at -jobs 1
// and -jobs 8.
func TestGoldenProjectReportSummaryMode(t *testing.T) {
	dir := goldenTree(t)
	units := discover(t, dir)

	var opts privacyscope.AnalysisOptions
	if err := json.Unmarshal([]byte(`{"summaries":true}`), &opts); err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		if got, want := UnitKey(u, u.Rules, opts), UnitKey(u, u.Rules, privacyscope.AnalysisOptions{}); got != want {
			t.Fatalf("unit %s: key %s with legacy options, want the default key %s", u.Name, got, want)
		}
	}
	for _, jobs := range []int{1, 8} {
		rep := Run(context.Background(), dir, units, Config{Jobs: jobs, Options: opts})
		scrub(rep)
		b, err := json.MarshalIndent(rep.Envelope(nil), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join("testdata", "golden", "report.txt"), []byte(rep.Render()))
		checkGolden(t, filepath.Join("testdata", "golden", "report.json"), append(b, '\n'))
	}
}
