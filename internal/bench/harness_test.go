package bench

import (
	"strings"
	"testing"
)

func TestFig1LatticeTable(t *testing.T) {
	out := Fig1LatticeTable()
	for _, want := range []string{"⊥", "t1", "t2", "⊤", "⊔"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestFig2PropagationTable(t *testing.T) {
	flat := strings.ReplaceAll(Fig2PropagationTable(), " ", "")
	for _, want := range []string{
		"P_binop(t1,t2)=⊤",
		"P_binop(t1,⊥)=t1",
		"P_cond(t1,⊥)=t1",
		"P_cond(t2,t1)=⊤",
	} {
		if !strings.Contains(flat, want) {
			t.Errorf("missing %q in:\n%s", want, Fig2PropagationTable())
		}
	}
}

func TestTableIIAndIII(t *testing.T) {
	out2, err := TableII()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "explicit") || !strings.Contains(out2, "2 * s1") {
		t.Errorf("Table II:\n%s", out2)
	}
	out3, err := TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out3, "implicit") {
		t.Errorf("Table III:\n%s", out3)
	}
}

func TestTableIVAndBox1(t *testing.T) {
	out4, err := TableIV()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"state A", "paths: 2", "secrets[1]"} {
		if !strings.Contains(out4, want) {
			t.Errorf("Table IV missing %q:\n%s", want, out4)
		}
	}
	box, err := Box1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"explicit", "implicit", "recovery"} {
		if !strings.Contains(box, want) {
			t.Errorf("Box 1 missing %q:\n%s", want, box)
		}
	}
}

func TestTableVShape(t *testing.T) {
	rows, err := TableV()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]TableVRow{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.Seconds <= 0 {
			t.Errorf("%s: no time measured", r.Name)
		}
	}
	// Shape: Kmeans costs the most — the ordering Table V reports. One
	// timed run orders the rows by host load as much as by work, so the
	// ordering is asserted on the deterministic state count.
	if !(byName["Kmeans"].States > byName["LinearRegression"].States) {
		t.Errorf("Kmeans (%d states) must explore more than LinearRegression (%d states)",
			byName["Kmeans"].States, byName["LinearRegression"].States)
	}
	if byName["Recommender"].Findings != 6 {
		t.Errorf("Recommender findings = %d, want 6", byName["Recommender"].Findings)
	}
	out := RenderTableV(rows)
	if !strings.Contains(out, "Kmeans") || !strings.Contains(out, "paper-time") {
		t.Errorf("render:\n%s", out)
	}
}

func TestTableVIMatrix(t *testing.T) {
	cells, err := TableVI()
	if err != nil {
		t.Fatal(err)
	}
	verdict := map[string]bool{}
	for _, c := range cells {
		verdict[c.Analysis+"|"+c.Case] = c.Flagged
	}
	want := map[string]bool{
		"PrivacyScope (NonRev)|explicit":     true,
		"PrivacyScope (NonRev)|implicit":     true,
		"PrivacyScope (NonRev)|masked-ml":    false,
		"PrivacyScope (NonRev)|clean":        false,
		"Noninterference|explicit":           true,
		"Noninterference|implicit":           true,
		"Noninterference|masked-ml":          true,
		"Noninterference|clean":              false,
		"DFA taint (path-insens.)|explicit":  true,
		"DFA taint (path-insens.)|implicit":  false,
		"DFA taint (path-insens.)|masked-ml": true,
		"DFA taint (path-insens.)|clean":     false,
		"Security type system|explicit":      true,
		"Security type system|implicit":      true,
		"Security type system|masked-ml":     true,
		"Security type system|clean":         false,
	}
	for k, w := range want {
		if verdict[k] != w {
			t.Errorf("%s = %v, want %v", k, verdict[k], w)
		}
	}
	out := RenderTableVI(cells)
	if !strings.Contains(out, "PrivacyScope") || !strings.Contains(out, "✓") {
		t.Errorf("render:\n%s", out)
	}
}

func TestCaseStudiesRender(t *testing.T) {
	out, err := CaseStudies()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"total: 6 violations (paper: 6)",
		"injected, detected",
		"points[0]",
		"points[7]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("case studies missing %q:\n%s", want, out)
		}
	}
}

func TestAblations(t *testing.T) {
	rows, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	get := func(name, config string) (AblationRow, bool) {
		for _, r := range rows {
			if r.Name == name && r.Config == config {
				return r, true
			}
		}
		return AblationRow{}, false
	}
	onRow, ok1 := get("implicit-check", "on")
	offRow, ok2 := get("implicit-check", "off")
	if !ok1 || !ok2 {
		t.Fatalf("rows = %+v", rows)
	}
	if onRow.Findings <= offRow.Findings {
		t.Errorf("implicit-check on (%d) must find more than off (%d)", onRow.Findings, offRow.Findings)
	}
	prOn, _ := get("solver-pruning", "on")
	prOff, _ := get("solver-pruning", "off")
	if prOn.Paths >= prOff.Paths {
		t.Errorf("pruning on (%d paths) must explore fewer than off (%d)", prOn.Paths, prOff.Paths)
	}
	lb2, _ := get("loop-bound", "2")
	lb16, _ := get("loop-bound", "16")
	if lb2.Paths >= lb16.Paths {
		t.Errorf("loop bound 2 (%d paths) must explore fewer than 16 (%d)", lb2.Paths, lb16.Paths)
	}
	out := RenderAblations(rows)
	if !strings.Contains(out, "loop-bound") {
		t.Errorf("render:\n%s", out)
	}
}

func TestRunAll(t *testing.T) {
	out, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Fig. 1", "Fig. 2", "Table II", "Table III", "Table IV",
		"Table V", "Table VI", "Case study 1", "Case study 2", "Ablations",
		"Fail-soft",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll missing %q", want)
		}
	}
}

func TestScalabilityStudy(t *testing.T) {
	rows, err := Scalability()
	if err != nil {
		t.Fatal(err)
	}
	// Path explosion: paths = 2^branches for the branch sweep.
	for _, r := range rows {
		if r.Straight == 4 {
			want := 1 << r.Branches
			if r.Paths != want {
				t.Errorf("branches=%d: paths = %d, want %d", r.Branches, r.Paths, want)
			}
		}
	}
	// Straight-line sweep keeps paths constant (4 = 2^2 branches).
	for _, r := range rows {
		if r.Branches == 2 && r.Paths != 4 {
			t.Errorf("straight=%d: paths = %d, want 4", r.Straight, r.Paths)
		}
	}
	out := RenderScalability(rows)
	if !strings.Contains(out, "Scalability") || !strings.Contains(out, "2^n") {
		t.Errorf("render:\n%s", out)
	}
	// ScalabilityProgram must parse.
	if _, err := RunPRIMLExample(Example1PRIML); err != nil {
		t.Fatal(err)
	}
}

func TestDeepKmeansScales(t *testing.T) {
	row, err := DeepKmeans()
	if err != nil {
		t.Fatal(err)
	}
	// Two assignment rounds over four points: well beyond the single-
	// iteration 16 paths, completed within the path budget.
	if row.Paths <= 16 {
		t.Errorf("paths = %d, want > 16", row.Paths)
	}
	if row.Seconds > 30 {
		t.Errorf("deep kmeans took %.2fs", row.Seconds)
	}
}

func TestFailsoftTable(t *testing.T) {
	rows, err := Failsoft()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 degraded rows, got %d", len(rows))
	}
	wantReason := map[string]string{
		"path-budget": "path-budget",
		"step-budget": "step-budget",
		"deadline":    "deadline",
	}
	for _, r := range rows {
		if r.Verdict != "inconclusive" {
			t.Errorf("%s: verdict = %q, want inconclusive", r.Mode, r.Verdict)
		}
		if r.Reason != wantReason[r.Mode] {
			t.Errorf("%s: reason = %q, want %q", r.Mode, r.Reason, wantReason[r.Mode])
		}
		if r.Degraded != 1 {
			t.Errorf("%s: check.degraded = %d, want 1", r.Mode, r.Degraded)
		}
	}
	// The path-budget cut keeps exactly its budget's worth of paths.
	if rows[0].Completed != 32 {
		t.Errorf("path-budget: completed = %d, want 32", rows[0].Completed)
	}
	out := RenderFailsoft(rows)
	if !strings.Contains(out, "Fail-soft") || !strings.Contains(out, "inconclusive") {
		t.Errorf("render:\n%s", out)
	}
}
