package privacyscope

import (
	"testing"

	"privacyscope/internal/core"
)

// shadowC holds three ECALLs whose verdicts depend on a nested declaration
// shadowing an outer one of the same name. Each name must denote its own
// variable: the inner x of leak and mirror, and the case-scoped y of
// caseShadow, are distinct from the outer ones.
const shadowC = `
void leak(int *secrets, int *output) {
    int x = secrets[0];
    { int x = 0; output[1] = x; }
    output[0] = x;
}
void mirror(int *secrets, int *output) {
    int x = 0;
    { int x = secrets[0]; output[1] = 0; }
    output[0] = x;
}
void caseShadow(int *s, int *output) {
    int y = 0;
    switch (s[0]) { case 1: int y = s[1]; break; }
    output[0] = y;
}
`

const shadowEDL = `
enclave {
    trusted {
        public void leak([in, size=8] int *secrets, [out, size=8] int *output);
        public void mirror([in, size=8] int *secrets, [out, size=8] int *output);
        public void caseShadow([in, size=8] int *s, [out, size=8] int *output);
    };
};
`

// TestShadowingVerdicts pins the verdicts of shadowed locals: the outer x
// of leak reaches output[0] (a real leak, confirmed by a replayed witness),
// while mirror and caseShadow write only the outer zero and are Secure.
// The ECALLs run in parallel, reading the file lowering annotated.
func TestShadowingVerdicts(t *testing.T) {
	rep, err := AnalyzeEnclave(shadowC, shadowEDL, WithParallelism(3))
	if err != nil {
		t.Fatal(err)
	}
	byFn := map[string]*Report{}
	for _, r := range rep.Reports {
		byFn[r.Function] = r
	}

	leak := byFn["leak"]
	if leak == nil || leak.Verdict() != core.VerdictFindings || len(leak.Findings) != 1 {
		t.Fatalf("leak: want one finding, got:\n%s", leak.Render())
	}
	f := leak.Findings[0]
	if f.Kind != core.ExplicitLeak || f.Where != "output[0]" || f.Secret != "secrets[0]" {
		t.Errorf("leak finding = %s at %s of %s, want explicit at output[0] of secrets[0]", f.Kind, f.Where, f.Secret)
	}
	if f.Witness == nil || !f.Witness.Verified {
		t.Errorf("leak finding has no verified witness: %+v", f.Witness)
	}

	for _, fn := range []string{"mirror", "caseShadow"} {
		if r := byFn[fn]; r == nil || !r.Secure() {
			t.Errorf("%s: want Secure, got:\n%s", fn, r.Render())
		}
	}
}
