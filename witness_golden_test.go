package privacyscope_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"privacyscope"
	"privacyscope/internal/batch"
	"privacyscope/internal/mlsuite"
)

// This file pins the contents of every finding's two-run witness: the
// envelope carries only Verified, so without it a change to the model
// search or the replay could silently pick other inputs or observe other
// values. Regenerate with
//
//	go test -run '^TestWitnessGolden$' -update .
//
// only when a change to the witnesses is intended.

var update = flag.Bool("update", false, "rewrite testdata/witness_golden.txt")

const witnessGoldenPath = "testdata/witness_golden.txt"

// witnessModule is one analysis unit of the witness golden.
type witnessModule struct {
	name, c, edl, rules string
}

// witnessCorpus lists the golden's modules: the Table V modules with their
// full EDL and narrowed to the ECALLs Table V analyzes, the §VI-D-2
// trojaned Kmeans, and every unit of examples/project and
// examples/leakpacks (with its rule file).
func witnessCorpus(t *testing.T) []witnessModule {
	t.Helper()
	var mods []witnessModule
	for _, m := range mlsuite.Modules() {
		mods = append(mods,
			witnessModule{name: "table5/" + m.Name + "/full", c: m.C, edl: m.EDL},
			witnessModule{name: "table5/" + m.Name + "/narrowed", c: m.C, edl: narrowToECalls(m.EDL, m.ECalls)})
	}
	mods = append(mods, witnessModule{name: "casestudy/MaliciousKmeans", c: mlsuite.MaliciousKmeansC, edl: mlsuite.MaliciousKmeansEDL})
	for _, dir := range []string{"project", "leakpacks"} {
		units, err := batch.Discover(filepath.Join("examples", dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range units {
			mods = append(mods, witnessModule{name: dir + "/" + u.Name, c: u.Source, edl: u.EDL, rules: u.Rules})
		}
	}
	return mods
}

// narrowToECalls keeps only the public ECALL declarations named in keep.
func narrowToECalls(src string, keep []string) string {
	var out []string
	for _, line := range strings.Split(src, "\n") {
		if strings.Contains(line, "public ") && !declaresECall(line, keep) {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

func declaresECall(line string, names []string) bool {
	for _, n := range names {
		if strings.Contains(line, " "+n+"(") {
			return true
		}
	}
	return false
}

// renderWitnesses prints one line per finding: module, function, rule,
// sink, and the witness's note, inputs, observations, recoveries and
// verdict.
func renderWitnesses(t *testing.T, mods []witnessModule) string {
	t.Helper()
	var sb strings.Builder
	for _, m := range mods {
		var opts []privacyscope.Option
		if m.rules != "" {
			opts = append(opts, privacyscope.WithConfigXML([]byte(m.rules)))
		}
		rep, err := privacyscope.AnalyzeEnclave(m.c, m.edl, opts...)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		for _, r := range rep.Reports {
			for _, f := range r.Findings {
				fmt.Fprintf(&sb, "%s %s %s %s", m.name, r.Function, f.Rule, f.Where)
				w := f.Witness
				if w == nil {
					sb.WriteString(" | no witness\n")
					continue
				}
				fmt.Fprintf(&sb, " | note=%q | A=%s B=%s | observed=%s,%s | recovered=%s,%s | verified=%t\n",
					w.Note, renderInputs(w.InputsA), renderInputs(w.InputsB),
					renderFloat(w.ObservedA), renderFloat(w.ObservedB),
					renderFloat(w.RecoveredA), renderFloat(w.RecoveredB), w.Verified)
			}
		}
	}
	return sb.String()
}

func renderInputs(in map[string]int32) string {
	names := make([]string, 0, len(in))
	for n := range in {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n + "=" + strconv.Itoa(int(in[n]))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func renderFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// TestWitnessGolden requires every finding's witness to match the
// committed golden byte for byte.
func TestWitnessGolden(t *testing.T) {
	got := renderWitnesses(t, witnessCorpus(t))
	if *update {
		if err := os.MkdirAll(filepath.Dir(witnessGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(witnessGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(witnessGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("witness golden differs at line %d:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
	}
}
