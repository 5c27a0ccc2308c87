package privacyscope

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privacyscope/internal/mlsuite"
)

// This file pins what the production path (facade → detect.Run) reports
// for every module the repo ships: per module, the JSON encoding of the
// EnclaveReport and each entry point's rendered report plus its
// exploration accounting, with the one wall-clock field (Duration) zeroed.
// The TestDetect* and TestIntern* gates compare against it. Regenerate with
// `make golden-update` (go test -run '^TestDetectReportGolden$' . -update)
// only when a change to analysis output is intended.

const reportGoldenPath = "testdata/report_golden.txt"

// goldenHeader starts each golden entry; the rest of the line is its key.
const goldenHeader = "#### "

// updateGoldens reports whether -update was passed. The flag is declared
// once per test binary, by the witness golden (witness_golden_test.go).
func updateGoldens() bool {
	f := flag.Lookup("update")
	return f != nil && f.Value.String() == "true"
}

// goldenModule is one analysis unit of the report golden. A module without
// an EDL is a single function analyzed with the §IV parameter
// classification (secrets secret, output observable).
type goldenModule struct {
	group, name string
	c, edl      string
	rules       string
	fn          string
	opts        []Option
}

func (m goldenModule) key() string { return m.group + "/" + m.name }

// analyze runs the module through the facade with extra options appended.
func (m goldenModule) analyze(t *testing.T, extra ...Option) *EnclaveReport {
	t.Helper()
	opts := append(append([]Option(nil), m.opts...), extra...)
	if m.rules != "" {
		opts = append(opts, WithConfigXML([]byte(m.rules)))
	}
	if m.edl == "" {
		return &EnclaveReport{Reports: []*Report{analyzeCSrc(t, m.c, m.fn, opts...)}}
	}
	rep, err := AnalyzeEnclave(m.c, m.edl, opts...)
	if err != nil {
		t.Fatalf("%s: %v", m.key(), err)
	}
	return rep
}

// mlsuiteGolden lists the Table V and extension modules and the malicious
// and fixed case-study variants.
func mlsuiteGolden() []goldenModule {
	var mods []goldenModule
	for _, m := range append(mlsuite.Modules(), mlsuite.ExtensionModules()...) {
		mods = append(mods, goldenModule{group: "mlsuite", name: m.Name, c: m.C, edl: m.EDL})
	}
	return append(mods,
		goldenModule{group: "mlsuite", name: "evil-linreg", c: mlsuite.MaliciousLinRegC, edl: mlsuite.MaliciousLinRegEDL},
		goldenModule{group: "mlsuite", name: "evil-kmeans", c: mlsuite.MaliciousKmeansC, edl: mlsuite.MaliciousKmeansEDL},
		goldenModule{group: "mlsuite", name: "fixed-recommender", c: mlsuite.FixedRecommenderC, edl: mlsuite.FixedRecommenderEDL},
	)
}

// examplesGolden lists every unit of examples/project and
// examples/leakpacks under the default detector set and, for units with a
// rule file, once more under it (name suffix "+rules").
func examplesGolden(t *testing.T) []goldenModule {
	t.Helper()
	var mods []goldenModule
	for _, root := range []string{
		filepath.Join("examples", "project"),
		filepath.Join("examples", "leakpacks"),
	} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".c") {
				return err
			}
			stem := strings.TrimSuffix(path, ".c")
			c, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			e, err := os.ReadFile(stem + ".edl")
			if err != nil {
				return err
			}
			m := goldenModule{group: "examples", c: string(c), edl: string(e),
				name: filepath.ToSlash(strings.TrimPrefix(path, "examples"+string(filepath.Separator)))}
			mods = append(mods, m)
			if rules, err := os.ReadFile(stem + ".xml"); err == nil {
				m.name += "+rules"
				m.rules = string(rules)
				mods = append(mods, m)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(mods) < 15 {
		t.Fatalf("found %d example units, want at least 15", len(mods))
	}
	return mods
}

const sectionIVInsecure = `
int leak(char *secrets, char *output)
{
    output[0] = secrets[0] + 4;
    return 0;
}
`

const sectionIVExample2 = `
int example2(char *secrets, char *output)
{
    int h = 2 * secrets[0];
    if (h - 5 == 15)
        output[0] = 0;
    else
        output[0] = 1;
    return 0;
}
`

// sectionIVGolden lists the §IV differential-stack programs under each
// switch that changes the default detector set or the replay, plus the
// pruning-off variant and three programs whose calls exercise summary
// replay and its fallbacks to inlining.
func sectionIVGolden() []goldenModule {
	fn := func(name, fn, src string, opts ...Option) goldenModule {
		return goldenModule{group: "sectionIV", name: name, fn: fn, c: src, opts: opts}
	}
	return []goldenModule{
		fn("insecure", "leak", sectionIVInsecure),
		fn("secure-masked", "masked", `
int masked(char *secrets, char *output)
{
    output[0] = secrets[0] + 4 + secrets[1];
    return 0;
}
`),
		fn("example1", "example1", `
int example1(char *secrets, char *output)
{
    int h1 = 2 * secrets[0];
    int h2 = 3 * secrets[1];
    int x = h1 + h2;
    output[0] = x;
    output[1] = h1;
    return 0;
}
`),
		fn("example2-feasible", "example2", sectionIVExample2),
		fn("example2-infeasible", "example2", strings.Replace(sectionIVExample2, "== 15", "== 14", 1), WithoutPruning()),
		fn("implicit-ablated", "example2", sectionIVExample2, WithDetectors("explicit")),
		fn("timing-on", "unbalanced", `
int unbalanced(char *secrets, char *output)
{
    int i = 0;
    if (secrets[0] > 10) {
        i = i + 1;
        i = i + 2;
        i = i + 3;
    }
    output[0] = 1;
    return 0;
}
`, WithDetectors("default", "timing")),
		fn("no-witness-replay", "leak", sectionIVInsecure, WithoutWitnessReplay()),
		// The leak routed through pure helpers, so summary skeleton replay
		// interns through the engine's arena.
		fn("insecure-through-helpers", "leak", `
int twice(int x) { return 2 * x; }
int add4(int x) { return x + 4; }
int leak(char *secrets, char *output)
{
    output[0] = add4(secrets[0]);
    output[1] = twice(add4(secrets[1]));
    return 0;
}
`),
		// A recursive helper that prints a secret: the call must inline down
		// to the sink, not be cut short.
		fn("recursive-printf", "leak", `
int down(int n, int s)
{
    if (n <= 0) {
        printf("%d", s);
        return 0;
    }
    return down(n - 1, s);
}
int leak(char *secrets, char *output)
{
    down(3, secrets[0]);
    output[0] = 0;
    return 0;
}
`),
		// A pure helper whose concrete loop runs past the summary build's
		// step bound: the call must still inline to completion.
		fn("over-scratch-bound", "leak", `
int spin(int x)
{
    int acc = x;
    int i;
    for (i = 0; i < 30000; i = i + 1) { acc = acc + 1; }
    return acc;
}
int leak(char *secrets, char *output)
{
    output[0] = spin(secrets[0]);
    return 0;
}
`),
	}
}

// fanoutGolden is a 2^10-path module whose ten secret branches each call a
// helper: large enough to spread over path workers and summary replay.
func fanoutGolden() goldenModule {
	var sb strings.Builder
	sb.WriteString("int step(int x) { return 2 * x + 1; }\n")
	sb.WriteString("int fanout(char *secrets, char *output)\n{\n    int acc = 0;\n")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&sb, "    if (secrets[%d] > 0) acc = acc + step(acc); else acc = acc - 1;\n", i)
	}
	sb.WriteString("    output[0] = 7;\n    return 0;\n}\n")
	return goldenModule{group: "fanout", name: "fanout", c: sb.String(), edl: `
enclave {
    trusted {
        public int fanout([in] char *secrets, [out] char *output);
    };
};
`}
}

// reportCorpus lists every golden module in file order.
func reportCorpus(t *testing.T) []goldenModule {
	mods := append(mlsuiteGolden(), examplesGolden(t)...)
	mods = append(mods, sectionIVGolden()...)
	return append(mods, fanoutGolden())
}

// goldenRender is the golden form of one module's result: the indented
// JSON of the EnclaveReport, then per entry point the rendered report, its
// exploration accounting and one line per finding — all with Duration
// zeroed.
func goldenRender(t *testing.T, rep *EnclaveReport) string {
	t.Helper()
	clean := &EnclaveReport{Reports: make([]*Report, len(rep.Reports))}
	for i, r := range rep.Reports {
		cp := *r
		cp.Duration = 0
		clean.Reports[i] = &cp
	}
	b, err := json.MarshalIndent(clean, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.Write(b)
	sb.WriteByte('\n')
	for _, r := range clean.Reports {
		sb.WriteString(r.Render())
		fmt.Fprintf(&sb, "verdict=%s paths=%d states=%d regions=%d secrets=%d warnings=%q\n",
			r.Verdict(), r.Paths, r.States, r.Regions, r.Secrets, r.Warnings)
		for i, f := range r.Findings {
			fmt.Fprintf(&sb, "finding[%d] kind=%s sink=%s where=%s secret=%s rule=%q severity=%q msg=%q\n",
				i, f.Kind, f.Sink, f.Where, f.Secret, f.Rule, f.Severity, f.Message)
		}
	}
	return sb.String()
}

// loadReportGolden parses the committed golden into key → entry, keeping
// the file's key order.
func loadReportGolden(t *testing.T) (map[string]string, []string) {
	t.Helper()
	data, err := os.ReadFile(reportGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	entries := make(map[string]string)
	var keys []string
	for _, chunk := range strings.Split(string(data), "\n"+goldenHeader)[1:] {
		key, body, _ := strings.Cut(chunk, "\n")
		entries[key] = body
		keys = append(keys, key)
	}
	return entries, keys
}

// requireGolden compares one module's result with its golden entry and
// reports the first differing line.
func requireGolden(t *testing.T, m goldenModule, rep *EnclaveReport) {
	t.Helper()
	entries, _ := loadReportGolden(t)
	want, ok := entries[m.key()]
	if !ok {
		t.Fatalf("no golden entry %q (regenerate with -update)", m.key())
	}
	got := goldenRender(t, rep)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs from the report golden at line %d:\n got: %s\nwant: %s", m.key(), i+1, g, w)
		}
	}
}

// TestDetectReportGolden rewrites the golden under -update; otherwise it
// requires the golden's entries to be exactly the corpus, in order, so no
// module goes unpinned and no stale entry lingers. The per-module
// comparisons run in the TestDetectDifferential* and TestIntern* gates.
func TestDetectReportGolden(t *testing.T) {
	mods := reportCorpus(t)
	if updateGoldens() {
		var sb strings.Builder
		sb.WriteString("Report golden: see report_golden_test.go. Regenerate with -update.\n")
		for _, m := range mods {
			sb.WriteString("\n" + goldenHeader + m.key() + "\n")
			sb.WriteString(goldenRender(t, m.analyze(t)))
		}
		if err := os.WriteFile(reportGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	_, keys := loadReportGolden(t)
	var want []string
	for _, m := range mods {
		want = append(want, m.key())
	}
	if strings.Join(keys, "\n") != strings.Join(want, "\n") {
		t.Fatalf("golden entries differ from the corpus (regenerate with -update):\n got: %q\nwant: %q", keys, want)
	}
}
