package bench

import (
	"fmt"
	"strings"
	"time"

	"privacyscope"
	"privacyscope/internal/obs"
)

// DetectorBenchRow is one detector selection analyzed over the pack-dense
// module: the baseline (default set), each scenario pack added on its own,
// and everything at once. Findings and exploration counters are
// deterministic per selection; Seconds is the host-dependent cost column —
// comparing a pack's row against the baseline row prices that pack.
type DetectorBenchRow struct {
	// Config names the selection ("baseline", "+ocall-pointer", ..., "all").
	Config string
	// Findings is the total finding count under this selection;
	// PackFindings is the subset attributed to the scenario packs (the
	// detect.findings counter).
	Findings     int
	PackFindings int64
	// Paths/States pin that detectors never change the exploration itself —
	// every selection shares one engine walk shape.
	Paths  int
	States int
	// Seconds is the selection's wall clock over detectorBenchIters
	// repeated analyses (timing column; repetition damps scheduler jitter
	// on a sub-millisecond module).
	Seconds float64
}

// detectorBenchIters is how many times each selection analyzes the module;
// the row reports the total.
const detectorBenchIters = 20

// detectorBenchC is the pack-dense module: a secret-derived cell escaping
// through an OCALL pointer (ocall-pointer), the OCALL running before the
// lifecycle gate (orderliness), a secret-dependent branch guarding a
// secret-indexed table lookup (access-pattern), and a status code computed
// over a secret mix (errcode-channel) — while every observable scalar stays
// multi-tag-masked so the baseline explicit policy prices only its own
// work. The helper loop gives each path enough states that the per-detector
// delta is measured against a non-trivial exploration.
const detectorBenchC = `
void init_session(void)
{
    int ready;
    ready = 1;
}
int helper(int x)
{
    int acc = x;
    int i = 0;
    while (i < 8) { acc = acc + 3; i = i + 1; }
    return acc;
}
int enclave_mix(int *secrets, int *table, int *output)
{
    int buf[2];
    int acc = helper(secrets[0]);
    buf[0] = secrets[1] * 2;
    buf[1] = acc;
    ocall_send(buf);
    init_session();
    if (secrets[2] > 0)
        acc = acc + table[secrets[3]];
    else
        acc = acc + 1;
    output[0] = acc + secrets[4] + secrets[5];
    return secrets[6] + secrets[7];
}
`

const detectorBenchEDL = `
enclave {
    trusted {
        public int enclave_mix([in] int *secrets, [user_check] int *table, [out] int *output);
    };
    untrusted {
        void ocall_send([user_check] int *buf);
    };
};
`

// detectorBenchXML supplies the lifecycle gate the orderliness pack needs;
// it applies to every selection so the rows differ only in detector choice.
const detectorBenchXML = `<privacyscope><lifecycle init="init_session"/></privacyscope>`

// DetectorBench prices the scenario packs: the pack-dense module analyzed
// under the default set, under each pack added individually, and with every
// registered detector on at once.
func DetectorBench() ([]DetectorBenchRow, error) {
	configs := []struct {
		name      string
		detectors []string
	}{
		{"baseline", nil},
		{"+ocall-pointer", []string{"default", "ocall-pointer"}},
		{"+errcode-channel", []string{"default", "errcode-channel"}},
		{"+orderliness", []string{"default", "orderliness"}},
		{"+access-pattern", []string{"default", "access-pattern"}},
		{"all", []string{"all"}},
	}
	// One untimed warm-up so the first row doesn't absorb process-global
	// lazy initialization.
	if _, err := privacyscope.AnalyzeEnclave(detectorBenchC, detectorBenchEDL,
		privacyscope.WithConfigXML([]byte(detectorBenchXML))); err != nil {
		return nil, fmt.Errorf("detector bench warm-up: %w", err)
	}
	var rows []DetectorBenchRow
	for _, cf := range configs {
		metrics := obs.NewMetrics()
		opts := []privacyscope.Option{
			privacyscope.WithConfigXML([]byte(detectorBenchXML)),
			privacyscope.WithObserver(metrics),
		}
		if cf.detectors != nil {
			opts = append(opts, privacyscope.WithDetectors(cf.detectors...))
		}
		var rep *privacyscope.EnclaveReport
		start := time.Now()
		for i := 0; i < detectorBenchIters; i++ {
			var err error
			rep, err = privacyscope.AnalyzeEnclave(detectorBenchC, detectorBenchEDL, opts...)
			if err != nil {
				return nil, fmt.Errorf("detector bench %s: %w", cf.name, err)
			}
		}
		row := DetectorBenchRow{
			Config:       cf.name,
			Findings:     rep.TotalFindings(),
			PackFindings: metrics.Counter("detect.findings") / detectorBenchIters,
			Seconds:      time.Since(start).Seconds(),
		}
		for _, r := range rep.Reports {
			row.Paths += r.Paths
			row.States += r.States
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderDetectorBench formats the pack cost study.
func RenderDetectorBench(rows []DetectorBenchRow) string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("Detector pack cost — pack-dense module, wall clock over %d runs\n", detectorBenchIters))
	sb.WriteString(fmt.Sprintf("%-18s %9s %6s %7s %8s %12s %10s\n",
		"Selection", "findings", "pack", "paths", "states", "seconds", "overhead"))
	var base float64
	for _, r := range rows {
		if r.Config == "baseline" {
			base = r.Seconds
		}
	}
	for _, r := range rows {
		overhead := "-"
		if base > 0 && r.Config != "baseline" {
			overhead = fmt.Sprintf("%+.0f%%", (r.Seconds/base-1)*100)
		}
		sb.WriteString(fmt.Sprintf("%-18s %9d %6d %7d %8d %12.6f %10s\n",
			r.Config, r.Findings, r.PackFindings, r.Paths, r.States, r.Seconds, overhead))
	}
	sb.WriteString("(one engine walk per selection; detectors only post-process it, so\n")
	sb.WriteString("paths/states are selection-invariant and overhead prices the detector)\n")
	return sb.String()
}
