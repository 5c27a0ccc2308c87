package privacyscope

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"privacyscope/internal/mlsuite"
)

const listing1C = `
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

const listing1EDL = `
enclave {
    trusted {
        public int enclave_process_data([in] char *secrets, [out] char *output);
    };
};
`

func TestAnalyzeEnclaveListing1(t *testing.T) {
	rep, err := AnalyzeEnclave(listing1C, listing1EDL)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Secure() {
		t.Fatal("Listing 1 must be insecure")
	}
	if rep.TotalFindings() != 2 {
		t.Fatalf("findings = %d: %s", rep.TotalFindings(), rep.Render())
	}
	kinds := map[string]int{}
	for _, f := range rep.Findings() {
		kinds[f.Kind.String()]++
	}
	if kinds["explicit"] != 1 || kinds["implicit"] != 1 {
		t.Errorf("kinds = %v", kinds)
	}
	out := rep.Render()
	if !strings.Contains(out, "recovery:") || !strings.Contains(out, "secrets[1]") {
		t.Errorf("render:\n%s", out)
	}
}

func TestAnalyzeEnclaveErrors(t *testing.T) {
	if _, err := AnalyzeEnclave("int f(", listing1EDL); err == nil {
		t.Error("bad C must fail")
	}
	if _, err := AnalyzeEnclave(listing1C, "nope"); err == nil {
		t.Error("bad EDL must fail")
	}
	if _, err := AnalyzeEnclave(listing1C, "enclave { trusted { }; };"); !errors.Is(err, ErrNoECalls) {
		t.Errorf("err = %v, want ErrNoECalls", err)
	}
	// Sema failure.
	if _, err := AnalyzeEnclave("int f(void) { return g(); }",
		"enclave { trusted { public int f(); }; };"); err == nil {
		t.Error("sema failure must fail")
	}
	if _, err := AnalyzeEnclave(listing1C, listing1EDL, WithConfigXML([]byte("<bad"))); err == nil {
		t.Error("bad XML must fail")
	}
}

// TestAnalyzeEnclaveRejectsSelfContainingStruct: a struct that contains
// itself by value has no size, so sizeof on it used to recurse until Go's
// fatal stack overflow, which no recover can catch. The checker now
// rejects the module with a positioned error before any engine runs.
func TestAnalyzeEnclaveRejectsSelfContainingStruct(t *testing.T) {
	src := `struct S { int a; struct S s; };
int f(int *secrets, int *output) {
    output[0] = sizeof(struct S) + secrets[0];
    return 0;
}`
	edlSrc := `enclave { trusted { public int f([in] int *secrets, [out] int *output); }; };`
	_, err := AnalyzeEnclave(src, edlSrc)
	if err == nil || !strings.Contains(err.Error(), "1:28: struct S contains itself by value") {
		t.Fatalf("err = %v, want the checker's positioned struct-cycle error", err)
	}
}

func TestAnalyzeEnclaveWithConfigOverride(t *testing.T) {
	// The XML flips the classification: nothing is secret → secure.
	xml := []byte(`
<privacyscope>
  <function name="enclave_process_data">
    <public param="secrets"/>
  </function>
</privacyscope>`)
	rep, err := AnalyzeEnclave(listing1C, listing1EDL, WithConfigXML(xml))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Secure() {
		t.Errorf("with secrets declassified the module is secure:\n%s", rep.Render())
	}
}

func TestAnalyzeFunctionDirect(t *testing.T) {
	rep, err := AnalyzeFunction(listing1C, "enclave_process_data", []ParamSpec{
		{Name: "secrets", Class: ParamSecret},
		{Name: "output", Class: ParamOut},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 2 {
		t.Errorf("findings = %+v", rep.Findings)
	}
	if _, err := AnalyzeFunction("int f(", "f", nil); err == nil {
		t.Error("bad C must fail")
	}
	if _, err := AnalyzeFunction(listing1C, "missing", nil); err == nil {
		t.Error("missing function must fail")
	}
}

func TestOptionsPlumbing(t *testing.T) {
	// Implicit off: only the explicit finding remains.
	rep, err := AnalyzeEnclave(listing1C, listing1EDL, WithDetectors("explicit"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalFindings() != 1 {
		t.Errorf("findings = %d", rep.TotalFindings())
	}
	// Witness off: explicit finding has no witness.
	rep, err = AnalyzeEnclave(listing1C, listing1EDL, WithoutWitnessReplay())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings() {
		if f.Witness != nil {
			t.Error("witness built despite WithoutWitnessReplay")
		}
	}
	// Prior knowledge turns a masked sum into a leak.
	masked := `
int f(int *secrets, int *output) {
    output[0] = secrets[0] + secrets[1];
    return 0;
}`
	maskedEDL := `enclave { trusted { public int f([in] int *secrets, [out] int *output); }; };`
	rep, err = AnalyzeEnclave(masked, maskedEDL, WithKnownInputs("secrets[1]"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Secure() {
		t.Error("prior knowledge must expose the leak")
	}
	// Loop bound / max paths plumb through without error.
	if _, err := AnalyzeEnclave(listing1C, listing1EDL, WithLoopBound(2), WithMaxPaths(64), WithTrace(), WithoutPruning()); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzePRIMLFacade(t *testing.T) {
	res, err := AnalyzePRIML(`h := 2 * get_secret(secret);
if h - 5 == 14 then declassify(0) else declassify(1)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Secure() || !res.HasImplicit() {
		t.Errorf("findings = %+v", res.Findings)
	}
	if _, err := AnalyzePRIML("x :="); err == nil {
		t.Error("bad PRIML must fail")
	}
}

// TestFullMLSuiteThroughFacade runs the paper's three modules end to end
// through the public API.
func TestFullMLSuiteThroughFacade(t *testing.T) {
	for _, m := range mlsuite.Modules() {
		t.Run(m.Name, func(t *testing.T) {
			rep, err := AnalyzeEnclave(m.C, m.EDL)
			if err != nil {
				t.Fatal(err)
			}
			switch m.Name {
			case "Recommender":
				if rep.TotalFindings() != 6 {
					t.Errorf("Recommender findings = %d, want 6:\n%s", rep.TotalFindings(), rep.Render())
				}
			case "LinearRegression":
				// The training ECALL is clean; the predict ECALL takes
				// the (already public) model as [in] — its output is a
				// masked combination, also clean.
				for _, r := range rep.Reports {
					if r.Function == "enclave_train_linreg" && !r.Secure() {
						t.Errorf("train flagged:\n%s", r.Render())
					}
				}
			}
		})
	}
}

func TestTimingCheckOption(t *testing.T) {
	src := `
int f(int *secrets, int *output) {
    int acc = 0;
    if (secrets[0] > 0) {
        for (int i = 0; i < 8; i++) { acc += i; }
    }
    output[0] = 0;
    return 0;
}`
	edl := `enclave { trusted { public int f([in] int *secrets, [out] int *output); }; };`
	rep, err := AnalyzeEnclave(src, edl, WithDetectors("default", "timing"))
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, f := range rep.Findings() {
		if f.Kind == TimingLeak {
			found = true
		}
	}
	if !found {
		t.Errorf("timing leak not reported:\n%s", rep.Render())
	}
}

func TestEDLUntrustedFunctionsAreSinks(t *testing.T) {
	// An EDL-declared OCALL taking a secret-derived argument is an
	// explicit leak, with no XML configuration needed.
	src := `
int f(int *secrets) {
    report_metric(secrets[0] * 2);
    return 0;
}`
	edl := `
enclave {
    trusted { public int f([in] int *secrets); };
    untrusted { void report_metric(int v); };
};`
	rep, err := AnalyzeEnclave(src, edl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Secure() {
		t.Fatal("OCALL of secret-derived value must be flagged")
	}
	f := rep.Findings()[0]
	if f.Sink != SinkOCall || !strings.Contains(f.Where, "report_metric") {
		t.Errorf("finding = %+v", f)
	}
}

// TestConcurrentAnalyses runs independent analyses in parallel to catch any
// accidental shared state between checker instances.
func TestConcurrentAnalyses(t *testing.T) {
	t.Parallel()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			rep, err := AnalyzeEnclave(listing1C, listing1EDL)
			if err != nil {
				done <- err
				return
			}
			if rep.TotalFindings() != 2 {
				done <- errors.New("wrong finding count under concurrency")
				return
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestParallelAnalysisMatchesSequential(t *testing.T) {
	seq, err := AnalyzeEnclave(mlsuite.RecommenderC, mlsuite.RecommenderEDL)
	if err != nil {
		t.Fatal(err)
	}
	par, err := AnalyzeEnclave(mlsuite.RecommenderC, mlsuite.RecommenderEDL, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Reports) != len(par.Reports) {
		t.Fatalf("report counts differ: %d vs %d", len(seq.Reports), len(par.Reports))
	}
	for i := range seq.Reports {
		if seq.Reports[i].Function != par.Reports[i].Function {
			t.Errorf("report order differs at %d", i)
		}
		if len(seq.Reports[i].Findings) != len(par.Reports[i].Findings) {
			t.Errorf("%s: findings %d vs %d", seq.Reports[i].Function,
				len(seq.Reports[i].Findings), len(par.Reports[i].Findings))
		}
	}
	if par.TotalFindings() != 6 {
		t.Errorf("parallel total = %d, want 6", par.TotalFindings())
	}
}

func TestConservativeExternsOption(t *testing.T) {
	src := `
int oracle(int x);
int f(int *secrets, int *output) {
    output[0] = oracle(3);
    return 0;
}`
	edl := `enclave { trusted { public int f([in] int *secrets, [out] int *output); }; };`
	// Default: extern results are public → secure. But sema rejects
	// unknown externs at the facade, so use AnalyzeFunction (no sema).
	rep, err := AnalyzeFunction(src, "f", []ParamSpec{
		{Name: "secrets", Class: ParamSecret},
		{Name: "output", Class: ParamOut},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Secure() {
		t.Errorf("default extern handling must be permissive: %+v", rep.Findings)
	}
	rep2, err := AnalyzeFunction(src, "f", []ParamSpec{
		{Name: "secrets", Class: ParamSecret},
		{Name: "output", Class: ParamOut},
	}, WithConservativeExterns())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Secure() {
		t.Error("conservative mode must flag the extern result at the sink")
	}
	_ = edl
}

func TestAnalysisDeterminism(t *testing.T) {
	// Two independent runs must produce byte-identical reports (modulo
	// the timing line) — map iteration anywhere in the pipeline must not
	// leak into the output.
	strip := func(s string) string {
		var out []string
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, "time:") {
				continue
			}
			out = append(out, line)
		}
		return strings.Join(out, "\n")
	}
	a, err := AnalyzeEnclave(mlsuite.KmeansC, mlsuite.KmeansEDL)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AnalyzeEnclave(mlsuite.KmeansC, mlsuite.KmeansEDL)
	if err != nil {
		t.Fatal(err)
	}
	if strip(a.Render()) != strip(b.Render()) {
		t.Error("reports differ across runs — nondeterminism in the pipeline")
	}
}

func TestProbabilisticCheckOption(t *testing.T) {
	src := `
int f(int *secrets, int *output) {
    output[0] = secrets[0] + rand();
    return 0;
}`
	edl := `enclave { trusted { public int f([in] int *secrets, [out] int *output); }; };`
	rep, err := AnalyzeEnclave(src, edl)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Secure() {
		t.Errorf("default must be secure:\n%s", rep.Render())
	}
	rep2, err := AnalyzeEnclave(src, edl, WithDetectors("default", "probabilistic"))
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, f := range rep2.Findings() {
		if f.Kind == ProbabilisticLeak {
			found = true
			if f.Rule != "PS-PROB" || f.Severity != "medium" {
				t.Errorf("probabilistic finding rule %q severity %q, want PS-PROB medium", f.Rule, f.Severity)
			}
		}
	}
	if !found {
		t.Errorf("probabilistic leak not reported:\n%s", rep2.Render())
	}
}

// TestAnalysisOptionsIgnoresRemovedIntern: interning has no off switch, so
// a daemon request or batch config that still sends "noIntern" decodes
// without error and keys exactly like the defaults.
func TestAnalysisOptionsIgnoresRemovedIntern(t *testing.T) {
	var o AnalysisOptions
	if err := json.Unmarshal([]byte(`{"noIntern":true}`), &o); err != nil {
		t.Fatal(err)
	}
	if got, want := o.KeyJSON(), (AnalysisOptions{}).KeyJSON(); got != want {
		t.Errorf("KeyJSON = %s, want the default %s", got, want)
	}
}

// TestAnalysisOptionsIgnoresRemovedFields: summaries have no switch and
// each entry point is explored on one goroutine, so a daemon request or
// batch config that still sends the summaries switch or a path-worker
// count decodes without error, keys exactly like the defaults and selects
// the default facade options.
func TestAnalysisOptionsIgnoresRemovedFields(t *testing.T) {
	for _, in := range []string{`{"summaries":true}`, `{"pathWorkers":4}`} {
		var o AnalysisOptions
		if err := json.Unmarshal([]byte(in), &o); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if got, want := o.KeyJSON(), (AnalysisOptions{}).KeyJSON(); got != want {
			t.Errorf("%s: KeyJSON = %s, want the default %s", in, got, want)
		}
		if n := len(o.FacadeOptions()); n != 0 {
			t.Errorf("%s: FacadeOptions selected %d options, want none", in, n)
		}
	}
}

// TestRenderBoundsValues: with every detector on, the access-pattern pack
// reports LogReg's secret branch conditions, expression DAGs whose full
// String is exponential in their depth. Every rendered value, condition
// and index line stays within the report's value cap.
func TestRenderBoundsValues(t *testing.T) {
	rep, err := AnalyzeEnclave(mlsuite.LogRegC, mlsuite.LogRegEDL, WithDetectors("all"))
	if err != nil {
		t.Fatal(err)
	}
	const maxLine = 200 // label + sink name + 160-byte value + truncation mark
	var lines int
	for _, line := range strings.Split(rep.Render(), "\n") {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "value:") && !strings.HasPrefix(trimmed, "condition:") && !strings.HasPrefix(trimmed, "index:") {
			continue
		}
		lines++
		if len(line) > maxLine {
			t.Errorf("rendered line is %d bytes, want at most %d: %.120q…", len(line), maxLine, line)
		}
	}
	if lines == 0 {
		t.Fatalf("no value, condition or index lines rendered:\n%s", rep.Render())
	}
}
