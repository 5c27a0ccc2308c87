package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"privacyscope/internal/core"
	"privacyscope/internal/detect"
	"privacyscope/internal/ir"
	"privacyscope/internal/minic"
	"privacyscope/internal/symexec"
)

const listing1 = `
int enclave_process_data(char *secrets, char *output)
{
    int temporary = secrets[0] + 100;
    output[0] = temporary + 1;
    if (secrets[1] == 0)
        return 0;
    else
        return 1;
}
`

func listing1Params() []symexec.ParamSpec {
	return []symexec.ParamSpec{
		{Name: "secrets", Class: symexec.ParamSecret},
		{Name: "output", Class: symexec.ParamOut},
	}
}

// analyze runs one entry point on the production path, detect.Run, with
// the named detectors (the default set when none are named).
func analyze(file *minic.File, fn string, params []symexec.ParamSpec, opts core.Options, detectors ...string) (*core.Report, error) {
	set, err := detect.ResolveSet(nil, nil, detectors)
	if err != nil {
		return nil, err
	}
	return detect.Run(context.Background(), set, opts, ir.LowerMiniC(file), fn, params)
}

func check(t *testing.T, src, fn string, params []symexec.ParamSpec, opts core.Options, detectors ...string) *core.Report {
	t.Helper()
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	report, err := analyze(file, fn, params, opts, detectors...)
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestBox1Report reproduces the paper's Box 1: the warning report for
// Listing 1 names both the explicit leak of secrets[0] through output[0]
// and the implicit leak of secrets[1] through the return value.
func TestBox1Report(t *testing.T) {
	report := check(t, listing1, "enclave_process_data", listing1Params(), core.DefaultOptions())

	if report.Secure() {
		t.Fatal("Listing 1 must be insecure")
	}
	if len(report.Explicit()) != 1 || len(report.Implicit()) != 1 {
		t.Fatalf("findings = %+v", report.Findings)
	}

	exp := report.Explicit()[0]
	if exp.Where != "output[0]" || exp.Secret != "secrets[0]" {
		t.Errorf("explicit = %+v", exp)
	}
	if exp.Inversion == nil || !exp.Inversion.Exact || exp.Inversion.Offset != 101 {
		t.Errorf("inversion = %+v", exp.Inversion)
	}

	imp := report.Implicit()[0]
	if imp.Where != "return" || imp.Secret != "secrets[1]" {
		t.Errorf("implicit = %+v", imp)
	}
	if imp.Values[0].String() != "0" || imp.Values[1].String() != "1" {
		t.Errorf("implicit values = %v, %v", imp.Values[0], imp.Values[1])
	}

	rendered := report.Render()
	for _, want := range []string{
		"PrivacyScope report: enclave_process_data",
		"explicit information leakage",
		"implicit information leakage",
		"secrets[0]",
		"secrets[1]",
		"output[0]",
		"recovery:",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("report missing %q:\n%s", want, rendered)
		}
	}
	if report.Duration <= 0 {
		t.Error("duration not recorded")
	}
	if report.Paths != 2 || report.Secrets != 2 {
		t.Errorf("metrics = %+v", report)
	}
}

// TestWitnessReplayListing1 confirms the explicit finding end-to-end: the
// checker runs the C function concretely twice and the inversion recovers
// the secret — the authors' manual verification, automated.
func TestWitnessReplayListing1(t *testing.T) {
	report := check(t, listing1, "enclave_process_data", listing1Params(), core.DefaultOptions())
	exp := report.Explicit()[0]
	w := exp.Witness
	if w == nil {
		t.Fatal("no witness")
	}
	if !w.Verified {
		t.Fatalf("witness not verified: %+v", w)
	}
	if !strings.Contains(w.Note, "concrete") {
		t.Errorf("expected concrete replay, got %q", w.Note)
	}
	if w.ObservedA == w.ObservedB {
		t.Error("observations must differ")
	}
	if w.InputsA["secrets[0]"] == w.InputsB["secrets[0]"] {
		t.Error("witness inputs must differ in the leaked secret")
	}
	if w.InputsA["secrets[1]"] != w.InputsB["secrets[1]"] {
		t.Error("witness inputs must agree on the other secret")
	}
}

func TestSecureMaskedSum(t *testing.T) {
	src := `
int f(int *secrets, int *output) {
    output[0] = secrets[0] + secrets[1];
    return 0;
}
`
	report := check(t, src, "f", listing1Params(), core.DefaultOptions())
	if !report.Secure() {
		t.Errorf("masked sum must be secure: %+v", report.Findings)
	}
	if !strings.Contains(report.Render(), "no nonreversibility violations") {
		t.Error("secure report text missing")
	}
}

func TestExplicitReturnLeak(t *testing.T) {
	src := `
int f(int *secrets) {
    return secrets[0] * 3;
}
`
	report := check(t, src, "f", []symexec.ParamSpec{{Name: "secrets", Class: symexec.ParamSecret}}, core.DefaultOptions())
	if len(report.Explicit()) != 1 {
		t.Fatalf("findings = %+v", report.Findings)
	}
	f := report.Explicit()[0]
	if f.Sink != core.SinkReturn || f.Inversion == nil || f.Inversion.Scale != 3 {
		t.Errorf("finding = %+v", f)
	}
}

func TestExplicitOCallLeak(t *testing.T) {
	src := `
int f(int *secrets) {
    printf("%d", secrets[0] + 1);
    return 0;
}
`
	report := check(t, src, "f", []symexec.ParamSpec{{Name: "secrets", Class: symexec.ParamSecret}}, core.DefaultOptions())
	if len(report.Explicit()) != 1 {
		t.Fatalf("findings = %+v", report.Findings)
	}
	if report.Explicit()[0].Sink != core.SinkOCall {
		t.Errorf("sink = %v", report.Explicit()[0].Sink)
	}
}

func TestImplicitOutputPresence(t *testing.T) {
	src := `
int f(int *secrets, int *output) {
    if (secrets[0] > 0) {
        output[0] = 7;
    }
    return 0;
}
`
	report := check(t, src, "f", listing1Params(), core.DefaultOptions())
	if len(report.Implicit()) != 1 {
		t.Fatalf("findings = %+v", report.Findings)
	}
	// An unwritten [out] cell is observably zero, so the leak reports
	// the concrete pair 7 vs 0 (with a replayed witness).
	f := report.Implicit()[0]
	values := map[string]bool{}
	if f.Values[0] != nil {
		values[f.Values[0].String()] = true
	}
	if f.Values[1] != nil {
		values[f.Values[1].String()] = true
	}
	if !values["7"] || !values["0"] {
		t.Errorf("values = %+v", f.Values)
	}
	if f.Witness == nil || !f.Witness.Verified {
		t.Errorf("witness = %+v", f.Witness)
	}
}

func TestUnwrittenOutCellIsZeroNotLeak(t *testing.T) {
	// Writing 0 on one path and nothing on the other is observably
	// identical (out buffers enter zeroed) — must NOT be a leak.
	src := `
int f(int *secrets, int *output) {
    if (secrets[0] > 0) {
        output[0] = 0;
    }
    return 0;
}
`
	report := check(t, src, "f", listing1Params(), core.DefaultOptions())
	if !report.Secure() {
		t.Errorf("0-vs-unwritten must be secure: %+v", report.Findings)
	}
}

func TestOutBufferReadsZeroSymbolically(t *testing.T) {
	// Reading an [out] cell before writing sees the zeroed buffer: no
	// phantom symbol flows into the result.
	src := `
int f(int *secrets, int *output) {
    output[0] = output[0] + 5;
    return 0;
}
`
	report := check(t, src, "f", listing1Params(), core.DefaultOptions())
	if !report.Secure() {
		t.Errorf("findings = %+v", report.Findings)
	}
}

func TestImplicitSameValueIsSecure(t *testing.T) {
	src := `
int f(int *secrets, int *output) {
    if (secrets[0] > 0) { output[0] = 5; }
    else { output[0] = 5; }
    return 0;
}
`
	report := check(t, src, "f", listing1Params(), core.DefaultOptions())
	if !report.Secure() {
		t.Errorf("same-value branches must be secure: %+v", report.Findings)
	}
}

func TestImplicitMultiSecretBranchSecure(t *testing.T) {
	src := `
int f(int *secrets) {
    if (secrets[0] + secrets[1] > 0) return 1;
    return 0;
}
`
	report := check(t, src, "f", []symexec.ParamSpec{{Name: "secrets", Class: symexec.ParamSecret}}, core.DefaultOptions())
	if !report.Secure() {
		t.Errorf("⊤-tainted π must be secure: %+v", report.Findings)
	}
}

func TestImplicitCheckAblation(t *testing.T) {
	report := check(t, listing1, "enclave_process_data", listing1Params(), core.DefaultOptions(), "explicit")
	if len(report.Implicit()) != 0 {
		t.Error("implicit findings with check disabled")
	}
	if len(report.Explicit()) != 1 {
		t.Error("explicit finding must survive")
	}
}

func TestDedupAcrossPaths(t *testing.T) {
	// The same explicit leak reachable via two paths reports once.
	src := `
int f(int *secrets, int *output, int n) {
    output[0] = secrets[0];
    if (n > 0) return 1;
    return 0;
}
`
	report := check(t, src, "f", []symexec.ParamSpec{
		{Name: "secrets", Class: symexec.ParamSecret},
		{Name: "output", Class: symexec.ParamOut},
		{Name: "n", Class: symexec.ParamPublic},
	}, core.DefaultOptions())
	if len(report.Explicit()) != 1 {
		t.Errorf("findings = %+v", report.Findings)
	}
}

func TestPriorKnowledgePolicy(t *testing.T) {
	// §VIII-B: F(A,B) = A + B with B attacker-known leaks A.
	src := `
int f(int *secrets, int *output) {
    output[0] = secrets[0] + secrets[1];
    return 0;
}
`
	opts := core.DefaultOptions()
	opts.KnownInputs = []string{"secrets[1]"}
	report := check(t, src, "f", listing1Params(), opts)
	if len(report.Explicit()) != 1 {
		t.Fatalf("findings = %+v", report.Findings)
	}
	f := report.Explicit()[0]
	if !f.PriorKnowledge {
		t.Error("finding must be marked as prior-knowledge dependent")
	}
	if f.Secret != "secrets[0]" {
		t.Errorf("secret = %s", f.Secret)
	}
	if !strings.Contains(report.Render(), "prior knowledge") {
		t.Error("report must note the prior-knowledge assumption")
	}

	// Without the assumption, the same program is secure.
	plain := check(t, src, "f", listing1Params(), core.DefaultOptions())
	if !plain.Secure() {
		t.Error("without prior knowledge the sum is masked")
	}
}

func TestFloatModelLeak(t *testing.T) {
	src := `
float f(float *secrets, float *output) {
    float w = secrets[0] * 0.5;
    output[0] = w;
    return w;
}
`
	report := check(t, src, "f", listing1Params(), core.DefaultOptions())
	// Both output[0] and return leak; distinct sinks → two findings.
	if len(report.Explicit()) != 2 {
		t.Fatalf("findings = %+v", report.Findings)
	}
	for _, f := range report.Explicit() {
		if f.Inversion == nil || f.Inversion.Scale != 0.5 {
			t.Errorf("inversion = %+v", f.Inversion)
		}
	}
}

func TestWitnessOnFloatBuffers(t *testing.T) {
	src := `
int f(float *secrets, float *output) {
    output[0] = secrets[0] * 2.0 + 1.0;
    return 0;
}
`
	report := check(t, src, "f", listing1Params(), core.DefaultOptions())
	w := report.Explicit()[0].Witness
	if w == nil || !w.Verified {
		t.Fatalf("witness = %+v", w)
	}
}

func TestCheckErrors(t *testing.T) {
	file := minic.MustParse("int f(void) { return 0; }")
	_, err := analyze(file, "missing", nil, core.DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("err = %v, want an unknown-entry-point error naming the function", err)
	}
}

func TestSinkAndKindStrings(t *testing.T) {
	if core.ExplicitLeak.String() != "explicit" || core.ImplicitLeak.String() != "implicit" {
		t.Error("LeakKind strings wrong")
	}
	if core.SinkOutParam.String() != "[out] parameter" || core.SinkReturn.String() != "return value" || core.SinkOCall.String() != "OCALL argument" {
		t.Error("SinkKind strings wrong")
	}
}

func TestFindingsSorted(t *testing.T) {
	src := `
int f(int *secrets, int *output) {
    output[1] = secrets[1];
    output[0] = secrets[0];
    return 0;
}
`
	report := check(t, src, "f", listing1Params(), core.DefaultOptions())
	if len(report.Findings) != 2 {
		t.Fatalf("findings = %+v", report.Findings)
	}
	if report.Findings[0].Where != "output[0]" || report.Findings[1].Where != "output[1]" {
		t.Errorf("order = %s, %s", report.Findings[0].Where, report.Findings[1].Where)
	}
}

func TestImplicitLeakSurvivesOtherBranches(t *testing.T) {
	// The injected implicit leak sits before other secret-dependent
	// branches, so the whole-path π is ⊤; the pairwise-diff variant of
	// Alg. 1 must still isolate the single deciding secret.
	src := `
int f(int *secrets, int *output) {
    if (secrets[0] == 42) { output[0] = 1; }
    else { output[0] = 0; }
    if (secrets[1] > 0) { output[1] = 5; }
    else { output[1] = 5; }
    if (secrets[2] > 10) { output[2] = 3; }
    else { output[2] = 4; }
    return 0;
}
`
	report := check(t, src, "f", listing1Params(), core.DefaultOptions())
	imp := report.Implicit()
	if len(imp) != 2 {
		t.Fatalf("implicit findings = %+v", imp)
	}
	secrets := map[string]bool{}
	for _, f := range imp {
		secrets[f.Secret] = true
	}
	if !secrets["secrets[0]"] || !secrets["secrets[2]"] {
		t.Errorf("leaked secrets = %v, want secrets[0] and secrets[2]", secrets)
	}
	// secrets[1]'s branch reveals the same value both ways: no finding.
	if secrets["secrets[1]"] {
		t.Error("secrets[1] must not be reported")
	}
}

func TestTimingChannelExtension(t *testing.T) {
	// §VIII-A: the branch on the secret does different amounts of work;
	// no data value leaks, but the statement count differs.
	src := `
int f(int *secrets, int *output) {
    int acc = 0;
    if (secrets[0] > 0) {
        for (int i = 0; i < 10; i++) { acc += i; }
    }
    output[0] = 0;
    return 0;
}
`
	// Off by default: only (maybe) nothing.
	base := check(t, src, "f", listing1Params(), core.DefaultOptions())
	for _, f := range base.Findings {
		if f.Kind == core.TimingLeak {
			t.Fatal("timing check must be off by default")
		}
	}
	report := check(t, src, "f", listing1Params(), core.DefaultOptions(), "default", "timing")
	var timing *core.Finding
	for i := range report.Findings {
		if report.Findings[i].Kind == core.TimingLeak {
			timing = &report.Findings[i]
		}
	}
	if timing == nil {
		t.Fatalf("no timing finding: %+v", report.Findings)
	}
	if timing.Secret != "secrets[0]" {
		t.Errorf("secret = %s", timing.Secret)
	}
	if timing.Costs[0] == timing.Costs[1] {
		t.Errorf("costs = %v", timing.Costs)
	}
	if !strings.Contains(report.Render(), "statements") {
		t.Error("render missing timing detail")
	}
	if core.TimingLeak.String() != "timing-channel" {
		t.Error("kind string wrong")
	}
}

func TestTimingCheckSilentOnBalancedBranches(t *testing.T) {
	src := `
int f(int *secrets, int *output) {
    int acc = 0;
    if (secrets[0] > 0) { acc = 1; } else { acc = 2; }
    output[0] = 0;
    return 0;
}
`
	report := check(t, src, "f", listing1Params(), core.DefaultOptions(), "default", "timing")
	for _, f := range report.Findings {
		if f.Kind == core.TimingLeak {
			t.Errorf("balanced branches must not be a timing leak: %+v", f)
		}
	}
}

func TestWitnessReplayOnReturnSink(t *testing.T) {
	src := `
int f(int *secrets) {
    return secrets[0] * 3 + 1;
}
`
	report := check(t, src, "f", []symexec.ParamSpec{{Name: "secrets", Class: symexec.ParamSecret}}, core.DefaultOptions())
	f := report.Explicit()[0]
	if f.Sink != core.SinkReturn {
		t.Fatalf("sink = %v", f.Sink)
	}
	if f.Witness == nil || !f.Witness.Verified {
		t.Fatalf("witness = %+v", f.Witness)
	}
	if !strings.Contains(f.Witness.Note, "concrete") {
		t.Errorf("note = %q, want concrete replay", f.Witness.Note)
	}
}

// TestAffineLeakProperty drives the entire pipeline over random affine
// programs: output[0] = a*secrets[0] + b*secrets[1] + c violates
// nonreversibility iff exactly one of a, b is non-zero.
func TestAffineLeakProperty(t *testing.T) {
	prop := func(a, b int8, c int8) bool {
		src := fmt.Sprintf(`
int f(int *secrets, int *output) {
    output[0] = %d * secrets[0] + %d * secrets[1] + %d;
    return 0;
}`, a, b, c)
		file, err := minic.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.ReplayWitness = false
		report, err := analyze(file, "f", listing1Params(), opts)
		if err != nil {
			t.Fatal(err)
		}
		nonzero := 0
		if a != 0 {
			nonzero++
		}
		if b != 0 {
			nonzero++
		}
		wantLeak := nonzero == 1
		return report.Secure() != wantLeak
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRenderTruncatesHugeValues(t *testing.T) {
	// A long sum still renders, truncated, without flooding the report.
	var sb strings.Builder
	sb.WriteString("int f(int *secrets, int *output) {\n    output[0] = secrets[0]")
	for i := 0; i < 40; i++ {
		sb.WriteString(" + 1")
	}
	sb.WriteString(";\n    return 0;\n}")
	report := check(t, sb.String(), "f", listing1Params(), core.DefaultOptions())
	rendered := report.Render()
	if !strings.Contains(rendered, "truncated") {
		// Only required if the value string exceeded the cap.
		for _, f := range report.Findings {
			if f.Value != nil && len(f.Value.String()) > 200 {
				t.Errorf("long value not truncated:\n%s", rendered)
			}
		}
	}
}

func TestSwitchImplicitLeak(t *testing.T) {
	src := `
int f(int *secrets, int *output) {
    switch (secrets[0]) {
    case 7:
        output[0] = 1;
        break;
    default:
        output[0] = 0;
    }
    return 0;
}
`
	report := check(t, src, "f", listing1Params(), core.DefaultOptions())
	if len(report.Implicit()) == 0 {
		t.Fatalf("switch implicit leak missed: %+v", report.Findings)
	}
	if report.Implicit()[0].Secret != "secrets[0]" {
		t.Errorf("secret = %s", report.Implicit()[0].Secret)
	}
}

func TestImplicitWitnessReplay(t *testing.T) {
	// Listing 1's implicit finding now carries a two-run witness: flip
	// only secrets[1] and the concrete return value changes.
	report := check(t, listing1, "enclave_process_data", listing1Params(), core.DefaultOptions())
	imp := report.Implicit()[0]
	w := imp.Witness
	if w == nil {
		t.Fatal("no implicit witness")
	}
	if !w.Verified {
		t.Fatalf("witness = %+v", w)
	}
	if w.ObservedA == w.ObservedB {
		t.Error("sibling observations must differ")
	}
	if w.InputsA["secrets[1]"] == w.InputsB["secrets[1]"] {
		t.Error("witness runs must differ in the deciding secret")
	}
	if w.InputsA["secrets[0]"] != w.InputsB["secrets[0]"] {
		t.Error("witness runs must agree on the other secret")
	}
}

func TestImplicitWitnessOnOutParam(t *testing.T) {
	src := `
int f(int *secrets, int *output) {
    if (secrets[0] == 19) { output[0] = 0; }
    else { output[0] = 1; }
    return 0;
}
`
	report := check(t, src, "f", listing1Params(), core.DefaultOptions())
	imp := report.Implicit()
	if len(imp) != 1 {
		t.Fatalf("findings = %+v", report.Findings)
	}
	w := imp[0].Witness
	if w == nil || !w.Verified {
		t.Fatalf("witness = %+v", w)
	}
	if (w.ObservedA == 0) == (w.ObservedB == 0) {
		t.Errorf("observations = %g, %g", w.ObservedA, w.ObservedB)
	}
}

func TestCheckerCompletesOnLargePathCount(t *testing.T) {
	// 2^10 = 1024 paths through the full checker (including the
	// pairwise implicit and witness machinery) must finish promptly.
	var sb strings.Builder
	sb.WriteString("int f(int *secrets, int *output) {\n    int acc = 0;\n")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&sb, "    if (secrets[%d] > %d) { acc = acc + %d; } else { acc = acc - %d; }\n", i, i, i+1, i+1)
	}
	sb.WriteString("    output[0] = acc;\n    return 0;\n}\n")
	file, err := minic.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Engine.MaxPaths = 2048
	start := time.Now()
	report, err := analyze(file, "f", listing1Params(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Paths != 1024 {
		t.Errorf("paths = %d, want 1024", report.Paths)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("checker took %v on 1024 paths", elapsed)
	}
	// acc mixes all ten secrets → ⊤ → no explicit finding on output[0].
	for _, f := range report.Findings {
		if f.Kind == core.ExplicitLeak {
			t.Errorf("unexpected explicit finding: %+v", f)
		}
	}
}

func TestImplicitPresenceLeakInElseBranch(t *testing.T) {
	// Regression: the write lives in the ELSE branch, so the non-writing
	// path completes first; the absence must still be recorded.
	src := `
int f(int *secrets, int *output) {
    if (secrets[0] > 0) {
    } else {
        output[0] = 7;
    }
    return 0;
}
`
	report := check(t, src, "f", listing1Params(), core.DefaultOptions())
	if len(report.Implicit()) != 1 {
		t.Fatalf("findings = %+v", report.Findings)
	}
	f := report.Implicit()[0]
	if f.Secret != "secrets[0]" {
		t.Errorf("finding = %+v", f)
	}
}

func TestProbabilisticChannelExtension(t *testing.T) {
	// secret + in-enclave randomness: not deterministically recoverable
	// (secure under the paper's threat model), but the distribution
	// reveals the secret.
	src := `
int f(int *secrets, int *output) {
    output[0] = secrets[0] + rand() % 4;
    return 0;
}
`
	// Default: secure (entropy masks deterministic recovery).
	base := check(t, src, "f", listing1Params(), core.DefaultOptions())
	if !base.Secure() {
		t.Fatalf("entropy-masked value must be secure by default: %+v", base.Findings)
	}
	// With the probabilistic detector: one probabilistic finding.
	report := check(t, src, "f", listing1Params(), core.DefaultOptions(), "default", "probabilistic")
	if len(report.Findings) != 1 {
		t.Fatalf("findings = %+v", report.Findings)
	}
	f := report.Findings[0]
	if f.Kind != core.ProbabilisticLeak || f.Secret != "secrets[0]" {
		t.Errorf("finding = %+v", f)
	}
	if core.ProbabilisticLeak.String() != "probabilistic-channel" {
		t.Error("kind string wrong")
	}
	if !strings.Contains(report.Render(), "distribution") {
		t.Errorf("render:\n%s", report.Render())
	}
}

func TestEntropyDoesNotMaskWhenUnused(t *testing.T) {
	// rand() is called but its result never reaches the sink: the plain
	// explicit finding stands.
	src := `
int f(int *secrets, int *output) {
    int noise = rand();
    output[0] = secrets[0] + 1;
    return noise * 0;
}
`
	report := check(t, src, "f", listing1Params(), core.DefaultOptions())
	if len(report.Explicit()) != 1 {
		t.Fatalf("findings = %+v", report.Findings)
	}
}

func TestEntropyPlusTwoSecretsStaysMasked(t *testing.T) {
	// ⊤-tainted values stay secure regardless of entropy.
	src := `
int f(int *secrets, int *output) {
    output[0] = secrets[0] + secrets[1] + rand();
    return 0;
}
`
	report := check(t, src, "f", listing1Params(), core.DefaultOptions(), "default", "probabilistic")
	if !report.Secure() {
		t.Errorf("⊤ value must stay secure: %+v", report.Findings)
	}
}
