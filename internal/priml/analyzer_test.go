package priml

import (
	"strings"
	"testing"

	"privacyscope/internal/solver"
	"privacyscope/internal/sym"
	"privacyscope/internal/taint"
)

func analyze(t *testing.T, src string) *Analysis {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewAnalyzer(DefaultOptions()).Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const example1 = `h1 := 2 * get_secret(secret);
h2 := 3 * get_secret(secret);
x := h1 + h2;
declassify(x);
declassify(h1)`

// TestTableIIExplicitTrace reproduces Table II: the simulation of
// PrivacyScope detecting the explicit leak in Example 1.
func TestTableIIExplicitTrace(t *testing.T) {
	res := analyze(t, example1)

	if res.Paths != 1 {
		t.Errorf("paths = %d, want 1", res.Paths)
	}
	rows := res.Trace.Rows()
	if len(rows) != 5 {
		t.Fatalf("trace rows = %d, want 5", len(rows))
	}

	// Row 1: Δ = {h1 → 2*s1}.
	if got := rows[0].Delta["h1"]; got != "2 * s1" {
		t.Errorf("row 1 Δ[h1] = %q, want \"2 * s1\"", got)
	}
	if rows[0].Tau["h1"] != "t1" {
		t.Errorf("row 1 τΔ[h1] = %q, want t1", rows[0].Tau["h1"])
	}
	// Row 2: Δ adds h2 → 3*s2.
	if got := rows[1].Delta["h2"]; got != "3 * s2" {
		t.Errorf("row 2 Δ[h2] = %q", got)
	}
	if rows[1].Tau["h2"] != "t2" {
		t.Errorf("row 2 τΔ[h2] = %q, want t2", rows[1].Tau["h2"])
	}
	// Row 3: x → 2*s1 + 3*s2 with τΔ[x] = ⊤.
	if got := rows[2].Delta["x"]; got != "(2 * s1) + (3 * s2)" {
		t.Errorf("row 3 Δ[x] = %q", got)
	}
	if rows[2].Tau["x"] != "⊤" {
		t.Errorf("row 3 τΔ[x] = %q, want ⊤", rows[2].Tau["x"])
	}
	// Row 4: declassify(x) does not abort (x is ⊤).
	if rows[3].Abort {
		t.Error("row 4 must not abort: x is masked by two secrets")
	}
	// Row 5: declassify(h1) aborts (h1 is t1).
	if !rows[4].Abort {
		t.Error("row 5 must abort: h1 is single-tagged")
	}

	// Exactly one finding: explicit leak of s1 at site 2.
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %+v", res.Findings)
	}
	f := res.Findings[0]
	if f.Kind != ExplicitLeak || f.Site != 2 || f.Secret != 1 {
		t.Errorf("finding = %+v", f)
	}
	// The inversion is the paper's "divide the observed value by 2".
	if f.Inversion == nil || !f.Inversion.Exact || f.Inversion.Scale != 2 {
		t.Errorf("inversion = %+v", f.Inversion)
	}
	if !strings.Contains(f.Message, "explicit") {
		t.Errorf("message = %q", f.Message)
	}
}

const example2 = `h := 2 * get_secret(secret);
if h - 5 == 14 then declassify(0) else declassify(1)`

// TestTableIIIImplicitTrace reproduces Table III: the simulation of
// PrivacyScope detecting the implicit leak in Example 2.
func TestTableIIIImplicitTrace(t *testing.T) {
	res := analyze(t, example2)

	if res.Paths != 2 {
		t.Errorf("paths = %d, want 2 (both branches explored)", res.Paths)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %+v", res.Findings)
	}
	f := res.Findings[0]
	if f.Kind != ImplicitLeak {
		t.Errorf("kind = %v, want implicit", f.Kind)
	}
	if f.Secret != 1 {
		t.Errorf("secret = %v, want t1", f.Secret)
	}
	// The two differing declassified values, 0 then 1 (Table III row 3:
	// "the value retrieved from the hashmap hm is 0 which is different
	// from what declassify is outputting (1)").
	if f.Values[0].String() != "0" || f.Values[1].String() != "1" {
		t.Errorf("values = %v, %v; want 0, 1", f.Values[0], f.Values[1])
	}

	rows := res.Trace.Rows()
	// Rows: assign, if(then), declassify(0), if(else), declassify(1).
	if len(rows) != 5 {
		t.Fatalf("trace rows = %d, want 5:\n%s", len(rows), res.Trace.Render())
	}
	if rows[0].Tau["h"] != "t1" {
		t.Errorf("τΔ[h] = %q", rows[0].Tau["h"])
	}
	// Row for then-branch entry: π records the branch condition and
	// τΔ[π] becomes t1.
	if !strings.Contains(rows[1].Pi, "==") {
		t.Errorf("then π = %q", rows[1].Pi)
	}
	if rows[1].Tau[taint.PiVar] != "t1" {
		t.Errorf("τΔ[π] = %q, want t1", rows[1].Tau[taint.PiVar])
	}
	// declassify(0) on the first path stores into hm and does not abort
	// (Table III row 2: "does not report a leakage ... because nothing
	// is stored in the hashmap hm before").
	if rows[2].Abort {
		t.Error("first declassify must not abort")
	}
	if rows[2].Hm["t1"] != "0" {
		t.Errorf("hm after first declassify = %v", rows[2].Hm)
	}
	// π of the second path is the negation.
	if !strings.Contains(rows[3].Pi, "!=") {
		t.Errorf("else π = %q", rows[3].Pi)
	}
	// declassify(1) on the second path aborts.
	if !rows[4].Abort {
		t.Error("second declassify must abort (implicit leak)")
	}
}

// TestNonreversibilityDefinition pins the two §IV examples: l := h1 + 4 is
// insecure; l := h1 + 4 + h2 is secure.
func TestNonreversibilityDefinition(t *testing.T) {
	insecure := analyze(t, "l := get_secret(secret) + 4; declassify(l)")
	if insecure.Secure() || !insecure.HasExplicit() {
		t.Errorf("h1+4 must be insecure: %+v", insecure.Findings)
	}
	f := insecure.Findings[0]
	if f.Inversion == nil || f.Inversion.Offset != 4 || f.Inversion.Scale != 1 {
		t.Errorf("inversion = %+v", f.Inversion)
	}

	secure := analyze(t, "l := get_secret(secret) + 4 + get_secret(secret); declassify(l)")
	if !secure.Secure() {
		t.Errorf("h1+4+h2 must be secure: %+v", secure.Findings)
	}
}

func TestImplicitSameValueBothBranchesIsSecure(t *testing.T) {
	// Both branches reveal the same constant: observing it tells the
	// attacker nothing.
	res := analyze(t, `h := get_secret(secret);
if h == 0 then declassify(5) else declassify(5)`)
	if !res.Secure() {
		t.Errorf("same-value branches must be secure: %+v", res.Findings)
	}
}

func TestImplicitOutputPresenceLeak(t *testing.T) {
	// declassify only on one side: output *presence* leaks the secret.
	// This is the end-of-last-path hm check of Alg. 1.
	res := analyze(t, `h := get_secret(secret);
if h == 0 then declassify(7) else skip`)
	if res.Secure() {
		t.Fatal("one-sided declassify must be insecure")
	}
	if !res.HasImplicit() || res.HasExplicit() {
		t.Errorf("findings = %+v", res.Findings)
	}
}

func TestImplicitMultiSecretBranchIsSecure(t *testing.T) {
	// π tainted by ⊤ (two secrets): revealing branch outcome does not
	// violate nonreversibility.
	res := analyze(t, `a := get_secret(secret);
b := get_secret(secret);
if a + b == 0 then declassify(0) else declassify(1)`)
	if !res.Secure() {
		t.Errorf("⊤-tainted branch must be secure: %+v", res.Findings)
	}
}

func TestImplicitNestedConditions(t *testing.T) {
	// Branching on a public value does not trigger the implicit check.
	res := analyze(t, `p := 3;
if p == 3 then declassify(0) else declassify(1)`)
	if !res.Secure() {
		t.Errorf("public branch must be secure: %+v", res.Findings)
	}
}

func TestExplicitLeakInsideBranch(t *testing.T) {
	res := analyze(t, `h := get_secret(secret);
if h > 0 then declassify(h) else skip`)
	if !res.HasExplicit() {
		t.Fatalf("findings = %+v", res.Findings)
	}
}

func TestXorSelfMaskIsSecureByConstruction(t *testing.T) {
	// h ^ h folds to 0 — no taint reaches the sink.
	res := analyze(t, `h := get_secret(secret);
declassify(h ^ h)`)
	if !res.Secure() {
		t.Errorf("h^h must be secure: %+v", res.Findings)
	}
}

func TestSameSecretTwiceStaysSingleTag(t *testing.T) {
	// h + h is still recoverable (2h): single tag, explicit leak.
	res := analyze(t, `h := get_secret(secret);
declassify(h + h)`)
	if !res.HasExplicit() {
		t.Fatalf("h+h must leak: %+v", res.Findings)
	}
	if inv := res.Findings[0].Inversion; inv == nil || inv.Scale != 2 {
		t.Errorf("inversion = %+v", inv)
	}
}

func TestConcreteConditionTakesOneBranch(t *testing.T) {
	res := analyze(t, `h := get_secret(secret);
if 1 == 1 then declassify(0) else declassify(h)`)
	// The else branch is dead: no leak.
	if !res.Secure() {
		t.Errorf("dead branch must not leak: %+v", res.Findings)
	}
	if res.Paths != 1 {
		t.Errorf("paths = %d, want 1", res.Paths)
	}
}

func TestPruneInfeasibleAblation(t *testing.T) {
	opts := DefaultOptions()
	opts.PruneInfeasible = true
	// Example 2's then branch (2s-5==14) is integer-infeasible; with
	// pruning on, only one path completes and no implicit leak fires.
	p := MustParse(example2)
	res, err := NewAnalyzer(opts).Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths != 1 {
		t.Errorf("paths = %d, want 1 with pruning", res.Paths)
	}
	// A feasible variant still leaks under pruning.
	p2 := MustParse(`h := get_secret(secret);
if h == 14 then declassify(0) else declassify(1)`)
	res2, err := NewAnalyzer(opts).Analyze(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.HasImplicit() {
		t.Errorf("feasible branches must still leak: %+v", res2.Findings)
	}
}

func TestMaxPathsBudget(t *testing.T) {
	// 2^13 paths from 13 independent secret branches exceeds a budget
	// of 16.
	var sb strings.Builder
	sb.WriteString("h := get_secret(secret);\n")
	for i := 0; i < 13; i++ {
		sb.WriteString("if h > " + string(rune('0')) + " then skip else skip;\n")
	}
	sb.WriteString("skip")
	opts := DefaultOptions()
	opts.MaxPaths = 16
	p := MustParse(sb.String())
	if _, err := NewAnalyzer(opts).Analyze(p); err == nil {
		t.Error("expected path-budget error")
	}
}

func TestFindingsSortedBySite(t *testing.T) {
	res := analyze(t, `a := get_secret(secret);
b := get_secret(secret);
declassify(b);
declassify(a)`)
	if len(res.Findings) != 2 {
		t.Fatalf("findings = %+v", res.Findings)
	}
	if res.Findings[0].Site != 1 || res.Findings[1].Site != 2 {
		t.Errorf("sites = %d, %d", res.Findings[0].Site, res.Findings[1].Site)
	}
}

func TestAnalysisAccessors(t *testing.T) {
	res := analyze(t, example1)
	if res.Secure() {
		t.Error("example1 is insecure")
	}
	if !res.HasExplicit() || res.HasImplicit() {
		t.Error("example1 has exactly an explicit leak")
	}
	if len(res.SecretSymbols) != 2 {
		t.Errorf("SecretSymbols = %v", res.SecretSymbols)
	}
	if res.SecretSymbols[1].Name != "s1" {
		t.Errorf("first secret = %q", res.SecretSymbols[1].Name)
	}
}

func TestTraceRender(t *testing.T) {
	res := analyze(t, example2)
	out := res.Trace.Render()
	for _, want := range []string{"Statement", "Δ", "π", "τΔ", "hm", "abort", "2 * s1", "t1"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered trace missing %q:\n%s", want, out)
		}
	}
	if res.Trace.Len() != len(res.Trace.Rows()) {
		t.Error("Len/Rows mismatch")
	}
}

// TestWitnessReplay closes the loop: the analyzer's explicit finding on
// Example 1 must be confirmed by two concrete runs that differ only in s1,
// with the inversion recovering the secret — the manual verification the
// paper's authors performed, automated.
func TestWitnessReplay(t *testing.T) {
	p := MustParse(example1)
	res, err := NewAnalyzer(DefaultOptions()).Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Findings[0]
	if f.Inversion == nil {
		t.Fatal("no inversion")
	}
	in := NewInterp()
	// occurrence 1 = s1, occurrence 2 = s2.
	run1, err := in.RunWithInputs(p, map[int]int32{1: 21, 2: 99})
	if err != nil {
		t.Fatal(err)
	}
	// The leaking site is site 2 → second declassified value.
	observed := run1.Declassified[1]
	recovered := (float64(observed) - f.Inversion.Offset) / f.Inversion.Scale
	if recovered != 21 {
		t.Errorf("recovered = %g, want 21", recovered)
	}
	// Same s1, different s2: the leaking output must not change.
	run2, err := in.RunWithInputs(p, map[int]int32{1: 21, 2: 5})
	if err != nil {
		t.Fatal(err)
	}
	if run2.Declassified[1] != observed {
		t.Error("leaked output must depend only on s1")
	}
}

func TestTaintOfValuesMatchesTauMap(t *testing.T) {
	// The derived-taint representation must agree with the τΔ the trace
	// records, for every row of Example 1.
	res := analyze(t, example1)
	for _, row := range res.Trace.Rows() {
		for v, lbl := range row.Tau {
			if v == taint.PiVar {
				continue
			}
			valStr, ok := row.Delta[v]
			if !ok {
				t.Errorf("τΔ tracks %q but Δ does not", v)
				continue
			}
			_ = valStr
			if lbl != "⊥" && lbl != "⊤" && !strings.HasPrefix(lbl, "t") {
				t.Errorf("bad label %q", lbl)
			}
		}
	}
	_ = sym.IntConst{}
}

// TestCustomPolicyHook exercises the §IX extension point: a user-supplied
// policy enforcing classical noninterference (any taint at all is a
// violation) on top of the built-in nonreversibility check.
func TestCustomPolicyHook(t *testing.T) {
	opts := DefaultOptions()
	opts.CustomPolicy = func(value sym.Expr, label taint.Label, pi *solver.PathCondition) string {
		if !label.IsBottom() || !pi.Taint().IsBottom() {
			return "noninterference: declassified value depends on high input"
		}
		return ""
	}
	// The masked sum satisfies nonreversibility but violates the custom
	// noninterference policy.
	p := MustParse("l := get_secret(secret) + get_secret(secret); declassify(l)")
	res, err := NewAnalyzer(opts).Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	var custom, builtin int
	for _, f := range res.Findings {
		switch f.Kind {
		case CustomLeak:
			custom++
			if !strings.Contains(f.Message, "noninterference") {
				t.Errorf("message = %q", f.Message)
			}
		default:
			builtin++
		}
	}
	if custom != 1 {
		t.Errorf("custom findings = %d, want 1", custom)
	}
	if builtin != 0 {
		t.Errorf("builtin findings = %d, want 0 (masked sum is nonreversibility-secure)", builtin)
	}
	if CustomLeak.String() != "custom-policy" {
		t.Error("kind string wrong")
	}
	// Custom findings on sibling paths dedupe.
	p2 := MustParse(`h := get_secret(secret);
if h > 0 then declassify(h) else declassify(h)`)
	res2, err := NewAnalyzer(opts).Analyze(p2)
	if err != nil {
		t.Fatal(err)
	}
	custom = 0
	for _, f := range res2.Findings {
		if f.Kind == CustomLeak {
			custom++
		}
	}
	if custom != 2 { // two distinct sites, one finding each
		t.Errorf("custom findings = %d, want 2", custom)
	}
}
