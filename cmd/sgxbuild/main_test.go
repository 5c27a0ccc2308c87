package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const cleanC = `
int train(float *data, float *model) {
    float total = 0.0;
    for (int i = 0; i < 4; i++) { total += data[i]; }
    model[0] = total / 4;
    return 0;
}
`

const leakyC = `
int train(float *data, float *model) {
    model[0] = data[0];
    return 0;
}
`

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBuildCleanModuleWithInferredEDL(t *testing.T) {
	cPath := write(t, "e.c", cleanC)
	manifest := filepath.Join(t.TempDir(), "m.json")
	var out bytes.Buffer
	code, err := run([]string{"-c", cPath, "-manifest", manifest}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	text := out.String()
	for _, want := range []string{"inferred EDL", "audit clean", "build ok"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if !m.Audited || !m.EDLInferred || m.Findings != 0 {
		t.Errorf("manifest = %+v", m)
	}
	if len(m.ECalls) != 1 || m.ECalls[0] != "train" {
		t.Errorf("ecalls = %v", m.ECalls)
	}
	if len(m.Measurement) != 64 {
		t.Errorf("measurement = %q", m.Measurement)
	}
}

func TestBuildRefusedOnLeak(t *testing.T) {
	cPath := write(t, "e.c", leakyC)
	var out bytes.Buffer
	code, err := run([]string{"-c", cPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(out.String(), "BUILD REFUSED") {
		t.Errorf("output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "data[0]") {
		t.Errorf("report missing the leaking secret:\n%s", out.String())
	}
}

func TestBuildWithExplicitEDLAndConfig(t *testing.T) {
	cPath := write(t, "e.c", leakyC)
	edlPath := write(t, "e.edl",
		"enclave { trusted { public int train([in] float *data, [out] float *model); }; };")
	// Config declassifies the input → clean build.
	cfgPath := write(t, "rules.xml", `
<privacyscope>
  <function name="train"><public param="data"/></function>
</privacyscope>`)
	var out bytes.Buffer
	code, err := run([]string{"-c", cPath, "-edl", edlPath, "-config", cfgPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "inferred EDL") {
		t.Error("explicit EDL must not be re-inferred")
	}
}

func TestBuildErrors(t *testing.T) {
	var out bytes.Buffer
	if _, err := run(nil, &out); err == nil {
		t.Error("missing -c must error")
	}
	if _, err := run([]string{"-c", "nope.c"}, &out); err == nil {
		t.Error("missing file must error")
	}
	bad := write(t, "bad.c", "int f(")
	if _, err := run([]string{"-c", bad}, &out); err == nil {
		t.Error("parse error must surface")
	}
	cPath := write(t, "e.c", cleanC)
	if _, err := run([]string{"-c", cPath, "-edl", "nope.edl"}, &out); err == nil {
		t.Error("missing EDL must error")
	}
	if _, err := run([]string{"-c", cPath, "-config", "nope.xml"}, &out); err == nil {
		t.Error("missing config must error")
	}
}

func TestBuildTimingGate(t *testing.T) {
	src := `
int f(int *secrets, int *output) {
    int acc = 0;
    if (secrets[0] > 0) {
        for (int i = 0; i < 8; i++) { acc += i; }
    }
    output[0] = 0;
    return 0;
}
`
	cPath := write(t, "e.c", src)
	edlPath := write(t, "e.edl",
		"enclave { trusted { public int f([in] int *secrets, [out] int *output); }; };")
	var out bytes.Buffer
	// Without the timing gate the module builds.
	code, err := run([]string{"-c", cPath, "-edl", edlPath}, &out)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	// A rule file that enables the timing detector makes the unbalanced
	// branch block the build.
	out.Reset()
	cfgPath := write(t, "timing.xml",
		`<privacyscope><detectors><enable name="timing"/></detectors></privacyscope>`)
	code, err = run([]string{"-c", cPath, "-edl", edlPath, "-config", cfgPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Errorf("exit = %d, want 2 with timing enabled in the rule file", code)
	}
	if !strings.Contains(out.String(), "timing-channel") {
		t.Errorf("refusal does not name the timing channel:\n%s", out.String())
	}
}
