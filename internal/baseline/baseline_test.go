package baseline

import (
	"context"
	"testing"

	"privacyscope/internal/core"
	"privacyscope/internal/detect"
	"privacyscope/internal/ir"
	"privacyscope/internal/minic"
	"privacyscope/internal/symexec"
)

func secretOutParams() []symexec.ParamSpec {
	return []symexec.ParamSpec{
		{Name: "secrets", Class: symexec.ParamSecret},
		{Name: "output", Class: symexec.ParamOut},
	}
}

// privacyScope analyzes f on the production path, detect.Run, with the
// default options and detector set.
func privacyScope(file *minic.File) (*core.Report, error) {
	return detect.Run(context.Background(), detect.DefaultSet(), core.DefaultOptions(), ir.LowerMiniC(file), "f", secretOutParams())
}

// suite holds the shared leak-benchmark programs behind the Table VI
// detection matrix.
var suite = map[string]string{
	// Explicit single-secret leak: everyone should catch it except pure
	// noninterference-on-ML reasoning (which also flags it).
	"explicit": `
int f(int *secrets, int *output) {
    output[0] = secrets[0] + 4;
    return 0;
}`,
	// Implicit leak via branch: DFA must miss it, PrivacyScope and the
	// noninterference checker must catch it.
	"implicit": `
int f(int *secrets, int *output) {
    if (secrets[0] == 19) { output[0] = 0; }
    else { output[0] = 1; }
    return 0;
}`,
	// Masked multi-secret aggregate (the ML-model shape): PrivacyScope
	// accepts, noninterference rejects, DFA rejects (it cannot tell
	// masking from leaking).
	"masked": `
int f(int *secrets, int *output) {
    output[0] = secrets[0] + secrets[1] + secrets[2];
    return 0;
}`,
	// Clean program: nobody flags it.
	"clean": `
int f(int *secrets, int *output) {
    output[0] = 42;
    return 0;
}`,
}

func TestNoninterferenceExplicit(t *testing.T) {
	file := minic.MustParse(suite["explicit"])
	r, err := NewNoninterference(symexec.DefaultOptions()).Check(file, "f", secretOutParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Secure() {
		t.Error("explicit leak must violate noninterference")
	}
}

func TestNoninterferenceImplicit(t *testing.T) {
	file := minic.MustParse(suite["implicit"])
	r, err := NewNoninterference(symexec.DefaultOptions()).Check(file, "f", secretOutParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Secure() {
		t.Error("implicit flow must violate noninterference")
	}
}

func TestNoninterferenceRejectsMaskedML(t *testing.T) {
	// The paper's core motivation: the trained model depends on the
	// data, so noninterference ALWAYS fires on ML aggregates even when
	// nonreversibility holds.
	file := minic.MustParse(suite["masked"])
	ni, err := NewNoninterference(symexec.DefaultOptions()).Check(file, "f", secretOutParams())
	if err != nil {
		t.Fatal(err)
	}
	if ni.Secure() {
		t.Error("noninterference must reject the masked aggregate")
	}
	ps, err := privacyScope(file)
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Secure() {
		t.Errorf("PrivacyScope must accept the masked aggregate: %+v", ps.Findings)
	}
}

func TestNoninterferenceClean(t *testing.T) {
	file := minic.MustParse(suite["clean"])
	r, err := NewNoninterference(symexec.DefaultOptions()).Check(file, "f", secretOutParams())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Secure() {
		t.Errorf("clean program flagged: %+v", r.Violations)
	}
}

func TestDFACatchesExplicit(t *testing.T) {
	file := minic.MustParse(suite["explicit"])
	r, err := NewDFATaint().Check(file, "f", secretOutParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Secure() {
		t.Fatal("DFA must catch the explicit leak")
	}
	v := r.Violations[0]
	if v.Where != "output[0]" || len(v.Sources) != 1 || v.Sources[0] != "secrets" {
		t.Errorf("violation = %+v", v)
	}
	if r.Summary() == "secure" {
		t.Error("summary wrong")
	}
}

func TestDFAMissesImplicit(t *testing.T) {
	// The blind spot that motivates symbolic execution (§II-B): path
	// insensitivity hides the branch dependence.
	file := minic.MustParse(suite["implicit"])
	r, err := NewDFATaint().Check(file, "f", secretOutParams())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Secure() {
		t.Errorf("DFA unexpectedly caught the implicit leak: %+v", r.Violations)
	}
	// PrivacyScope catches it.
	ps, err := privacyScope(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Implicit()) == 0 {
		t.Error("PrivacyScope must catch the implicit leak")
	}
}

func TestDFAFlagsMaskedAggregate(t *testing.T) {
	// Variable-granular taint cannot distinguish masking: it reports the
	// aggregate, producing the false positive PrivacyScope avoids.
	file := minic.MustParse(suite["masked"])
	r, err := NewDFATaint().Check(file, "f", secretOutParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Secure() {
		t.Error("DFA flags any tainted sink, including masked ones")
	}
}

func TestDFAClean(t *testing.T) {
	file := minic.MustParse(suite["clean"])
	r, err := NewDFATaint().Check(file, "f", secretOutParams())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Secure() {
		t.Errorf("clean program flagged: %+v", r.Violations)
	}
	if r.Summary() != "secure" {
		t.Error("summary wrong")
	}
}

func TestDFALoopsReachFixpoint(t *testing.T) {
	src := `
int f(int *secrets, int *output) {
    int a = 0;
    int b = 0;
    int c = 0;
    for (int i = 0; i < 10; i++) {
        c = b;
        b = a;
        a = secrets[0];
    }
    output[0] = c;
    return 0;
}
`
	file := minic.MustParse(src)
	r, err := NewDFATaint().Check(file, "f", secretOutParams())
	if err != nil {
		t.Fatal(err)
	}
	// Taint needs three rounds to flow a→b→c; the fixpoint must find it.
	if r.Secure() {
		t.Error("transitive loop taint missed — fixpoint broken")
	}
	if r.Iterations < 3 {
		t.Errorf("iterations = %d, want ≥ 3", r.Iterations)
	}
}

func TestDFAThroughMemcpyAndPrintf(t *testing.T) {
	src := `
int f(int *secrets, int *output) {
    int tmp[4];
    memcpy(tmp, secrets, 4);
    printf("%d", tmp[0]);
    return 0;
}
`
	file := minic.MustParse(src)
	r, err := NewDFATaint().Check(file, "f", secretOutParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Secure() {
		t.Error("taint through memcpy to printf missed")
	}
}

func TestDFAReturnSink(t *testing.T) {
	src := `int f(int *secrets) { return secrets[0]; }`
	file := minic.MustParse(src)
	r, err := NewDFATaint().Check(file, "f", []symexec.ParamSpec{{Name: "secrets", Class: symexec.ParamSecret}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Secure() || r.Violations[0].Where != "return" {
		t.Errorf("violations = %+v", r.Violations)
	}
}

func TestDFAUnknownFunction(t *testing.T) {
	file := minic.MustParse("int f(void) { return 0; }")
	if _, err := NewDFATaint().Check(file, "g", nil); err == nil {
		t.Error("expected error")
	}
	if _, err := NewNoninterference(symexec.DefaultOptions()).Check(file, "g", nil); err == nil {
		t.Error("expected error")
	}
}

// TestTableVIDetectionMatrix pins the full detection matrix of Table VI on
// the shared suite: rows are analyses, columns are leak classes.
func TestTableVIDetectionMatrix(t *testing.T) {
	type verdicts struct{ explicit, implicit, masked, clean bool } // true = flagged
	want := map[string]verdicts{
		"privacyscope":    {explicit: true, implicit: true, masked: false, clean: false},
		"noninterference": {explicit: true, implicit: true, masked: true, clean: false},
		"dfa":             {explicit: true, implicit: false, masked: true, clean: false},
		"typesystem":      {explicit: true, implicit: true, masked: true, clean: false},
	}
	got := map[string]verdicts{}
	run := func(name string) (bool, bool, bool, bool) {
		flag := func(caseName string) bool {
			file := minic.MustParse(suite[caseName])
			switch name {
			case "privacyscope":
				r, err := privacyScope(file)
				if err != nil {
					t.Fatal(err)
				}
				return !r.Secure()
			case "noninterference":
				r, err := NewNoninterference(symexec.DefaultOptions()).Check(file, "f", secretOutParams())
				if err != nil {
					t.Fatal(err)
				}
				return !r.Secure()
			case "typesystem":
				r, err := NewTypeSystem().Check(file, "f", secretOutParams())
				if err != nil {
					t.Fatal(err)
				}
				return !r.Secure()
			default:
				r, err := NewDFATaint().Check(file, "f", secretOutParams())
				if err != nil {
					t.Fatal(err)
				}
				return !r.Secure()
			}
		}
		return flag("explicit"), flag("implicit"), flag("masked"), flag("clean")
	}
	for name := range want {
		e, i, m, cl := run(name)
		got[name] = verdicts{explicit: e, implicit: i, masked: m, clean: cl}
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s matrix = %+v, want %+v", name, got[name], w)
		}
	}
}

func TestTypeSystemExplicitAndImplicit(t *testing.T) {
	for _, name := range []string{"explicit", "implicit"} {
		file := minic.MustParse(suite[name])
		r, err := NewTypeSystem().Check(file, "f", secretOutParams())
		if err != nil {
			t.Fatal(err)
		}
		if r.Secure() {
			t.Errorf("%s: type system must reject", name)
		}
	}
	// The implicit case is flagged *via the pc label*.
	file := minic.MustParse(suite["implicit"])
	r, _ := NewTypeSystem().Check(file, "f", secretOutParams())
	var viaPC bool
	for _, v := range r.Violations {
		if v.ViaPC {
			viaPC = true
		}
	}
	if !viaPC {
		t.Errorf("implicit violation should be marked ViaPC: %+v", r.Violations)
	}
}

func TestTypeSystemRejectsMaskedAndAcceptsClean(t *testing.T) {
	masked := minic.MustParse(suite["masked"])
	r, err := NewTypeSystem().Check(masked, "f", secretOutParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Secure() {
		t.Error("masked aggregate must fail typing (the conservatism PrivacyScope avoids)")
	}
	clean := minic.MustParse(suite["clean"])
	r, err = NewTypeSystem().Check(clean, "f", secretOutParams())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Secure() {
		t.Errorf("clean program failed typing: %+v", r.Violations)
	}
}

func TestTypeSystemRejectsDeadHighBranch(t *testing.T) {
	// Flow-insensitivity: even a dead branch under a high guard is
	// rejected — strictly more conservative than the semantic
	// noninterference checker.
	src := `
int f(int *secrets, int *output) {
    if (0) {
        if (secrets[0] > 0) { output[0] = 1; }
    }
    output[0] = 2;
    return 0;
}
`
	file := minic.MustParse(src)
	ts, err := NewTypeSystem().Check(file, "f", secretOutParams())
	if err != nil {
		t.Fatal(err)
	}
	if ts.Secure() {
		t.Error("type system must reject the dead high-guard write")
	}
	ni, err := NewNoninterference(symexec.DefaultOptions()).Check(file, "f", secretOutParams())
	if err != nil {
		t.Fatal(err)
	}
	if !ni.Secure() {
		t.Errorf("semantic noninterference must accept (branch is dead): %+v", ni.Violations)
	}
}

func TestTypeSystemLevelsFixpoint(t *testing.T) {
	src := `
int f(int *secrets, int *output) {
    int a = 0;
    int b = 0;
    int c = 0;
    for (int i = 0; i < 4; i++) {
        c = b;
        b = a;
        a = secrets[0];
    }
    output[0] = c;
    return 0;
}
`
	file := minic.MustParse(src)
	r, err := NewTypeSystem().Check(file, "f", secretOutParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Secure() {
		t.Error("transitive high flow missed — fixpoint broken")
	}
	if r.Levels["c"] != High {
		t.Errorf("level(c) = %v, want H", r.Levels["c"])
	}
	if Low.String() != "L" || High.String() != "H" {
		t.Error("Level strings wrong")
	}
}

func TestTypeSystemUnknownFunction(t *testing.T) {
	file := minic.MustParse("int f(void) { return 0; }")
	if _, err := NewTypeSystem().Check(file, "g", nil); err == nil {
		t.Error("expected error")
	}
}

// kitchenSink exercises every statement and expression node the baseline
// walkers handle, so changes to the AST surface keep the baselines honest.
const kitchenSink = `
struct P { int v; };
int helper(int x) { return x; }
int f(int *secrets, int *output, int n) {
    int a = secrets[0];
    int b = -a + ~n + !a;
    float c = (float)b;
    struct P p;
    p.v = a;
    int *q = &a;
    *q = *q + 1;
    b += p.v;
    b++;
    int t = n > 0 ? a : b;
    int z = sizeof(int) + sizeof t;
    do { z--; } while (z > 0);
    switch (n) {
    case 1:
        b = helper(a);
        break;
    default:
        b = 0;
    }
    while (n > 100) { n--; }
    for (int i = 0; i < 2; i++) { b ^= i; }
    memcpy(output, secrets, 1);
    printf("%d", t);
    output[0] = b | (a & 3);
    return b << 1;
}
`

func kitchenParams() []symexec.ParamSpec {
	return []symexec.ParamSpec{
		{Name: "secrets", Class: symexec.ParamSecret},
		{Name: "output", Class: symexec.ParamOut},
		{Name: "n", Class: symexec.ParamPublic},
	}
}

func TestDFAKitchenSink(t *testing.T) {
	file := minic.MustParse(kitchenSink)
	r, err := NewDFATaint().Check(file, "f", kitchenParams())
	if err != nil {
		t.Fatal(err)
	}
	// a (← secrets) flows into b, printf, output and return.
	if r.Secure() {
		t.Fatal("kitchen sink must be flagged")
	}
	wheres := map[string]bool{}
	for _, v := range r.Violations {
		wheres[v.Where] = true
	}
	for _, want := range []string{"output[0]", "return", "printf"} {
		if !wheres[want] {
			t.Errorf("missing violation at %s: %v", want, r.Violations)
		}
	}
}

func TestTypeSystemKitchenSink(t *testing.T) {
	file := minic.MustParse(kitchenSink)
	r, err := NewTypeSystem().Check(file, "f", kitchenParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Secure() {
		t.Fatal("kitchen sink must fail typing")
	}
	if r.Levels["a"] != High || r.Levels["b"] != High {
		t.Errorf("levels = %v", r.Levels)
	}
}
