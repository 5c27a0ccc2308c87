package privacyscope

import (
	"runtime"
	"strings"
	"testing"

	"privacyscope/internal/interp"
	"privacyscope/internal/minic"
)

const probeEDL = `enclave { trusted { public void f([in] int *secrets, [out] int *output); }; };`

// runProbe runs f(secrets = {42}, output) in the MiniC interpreter, as the
// SGX simulator would, and returns output[0].
func runProbe(t *testing.T, src string) int64 {
	t.Helper()
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := interp.Compile(file).NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	secrets := interp.NewBuffer("secrets", interp.CellInt, 1)
	if err := secrets.SetCells([]interp.Value{interp.IntValue(42)}); err != nil {
		t.Fatal(err)
	}
	output := interp.NewBuffer("output", interp.CellInt, 1)
	if _, err := m.Call("f", []interp.Value{
		interp.PtrValue(interp.Pointer{Obj: secrets}),
		interp.PtrValue(interp.Pointer{Obj: output}),
	}); err != nil {
		t.Fatal(err)
	}
	return output.Cells()[0].Int()
}

// TestArithProbesAgree pins modules whose verdict once depended on a copy
// of C arithmetic that disagreed with the one the enclave runs: the
// analyzer must report the explicit leak exactly when the interpreter,
// given secret 42, writes 42 out.
func TestArithProbesAgree(t *testing.T) {
	probes := []struct {
		name, helpers, body string
		leaks               bool
	}{
		// abs is int: abs(-5) / 2 is 2, not 2.5.
		{"abs-int", "", `if (abs(-5) / 2 == 2) output[0] = secrets[0]; else output[0] = 0;`, true},
		// abs(INT_MIN) wraps to INT_MIN.
		{"abs-int-min", "", `if (abs(-2147483647 - 1) < 0) output[0] = secrets[0]; else output[0] = 0;`, true},
		// 3e9 is outside int32, so it converts to INT_MIN (x86
		// cvttsd2si), not to 3e9 wrapped to 32 bits.
		{"double-to-int-wrapped", "", `double d = 3000000000.0; int y = d;
    if (y == -1294967296) output[0] = secrets[0]; else output[0] = 1;`, false},
		{"double-to-int-min", "", `double d = 3000000000.0; int y = d;
    if (y == -2147483647 - 1) output[0] = secrets[0]; else output[0] = 1;`, true},
		// A nonzero secret overflows d to ±Inf, and Inf * 0 is NaN,
		// which is not equal to itself: neither x * 0 nor x == x
		// folds for a float x.
		{"float-times-zero", "", `double big = 1e308; double d = secrets[0] * big * big; double z = d * 0;
    if (z == z) output[0] = 0; else output[0] = secrets[0];`, true},
		// A symbolic float assigned to an int truncates: 42 * 0.5 + 0.5
		// is 21.5, which converts to 21, while over the reals y == 21
		// and secrets[0] == 42 exclude each other.
		{"symbolic-float-to-int", "", `int y = secrets[0] * 0.5 + 0.5;
    if (y == 21 && secrets[0] == 42) output[0] = secrets[0]; else output[0] = 0;`, true},
		// The same conversion happens when an int function returns a
		// float and when a float is passed to an int parameter.
		{"return-float-to-int", "int half(int x) { return x * 0.5 + 0.5; }\n",
			`if (half(secrets[0]) == 21 && secrets[0] == 42) output[0] = secrets[0]; else output[0] = 0;`, true},
		{"argument-float-to-int",
			"void g(int x, int *out, int s) { if (x == 21 && s == 42) out[0] = s; else out[0] = 0; }\n",
			`g(secrets[0] * 0.5 + 0.5, output, secrets[0]);`, true},
	}
	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			src := p.helpers + "void f(int *secrets, int *output) {\n    " + p.body + "\n}\n"
			rep, err := AnalyzeEnclave(src, probeEDL)
			if err != nil {
				t.Fatal(err)
			}
			var explicit bool
			for _, f := range rep.Findings() {
				explicit = explicit || f.Kind == ExplicitLeak
			}
			if explicit != p.leaks || rep.Secure() == p.leaks {
				t.Errorf("analyzer: explicit leak %v, secure %v; want a leak: %v\n%s", explicit, rep.Secure(), p.leaks, rep.Render())
			}
			if got := runProbe(t, src); (got == 42) != p.leaks {
				t.Errorf("interpreter writes %d; want a leak: %v", got, p.leaks)
			}
		})
	}
}

// TestRenderBoundsPathConditions renders the report of a module whose path
// condition is a DAG 24 squarings deep, so its full text would take
// gigabytes: each conjunct is cut, and the rendering stays small.
func TestRenderBoundsPathConditions(t *testing.T) {
	src := `
void f(int *secrets, int *output) {
    int x = secrets[0];
    for (int i = 0; i < 24; i++) x = x * x + x;
    if (x > 0) {
        for (int j = 0; j < 4; j++) output[0] = j;
    }
    output[0] = 0;
}`
	rep, err := AnalyzeEnclave(src, probeEDL, WithDetectors("default", "timing"))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := rep.Render()
	runtime.ReadMemStats(&after)
	if !strings.Contains(out, "path condition:") || !strings.Contains(out, "…(truncated)") {
		t.Fatalf("want a truncated path condition in the report:\n%s", out)
	}
	const maxBytes, maxAlloc = 4 << 10, 64 << 10
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("report: %d bytes; rendering allocated %d bytes", len(out), alloc)
	if len(out) > maxBytes {
		t.Errorf("report is %d bytes, want at most %d", len(out), maxBytes)
	}
	if alloc > maxAlloc {
		t.Errorf("rendering allocated %d bytes, want at most %d", alloc, maxAlloc)
	}
}
