package ir

import (
	"runtime"
	"strings"
	"testing"

	"privacyscope/internal/minic"
)

// TestLowerDisplayIsLazy: an op keeps its statement and renders it only
// when Display is asked for.
func TestLowerDisplayIsLazy(t *testing.T) {
	file, err := minic.Parse("int f(int x, int *output) { int y = x + 1; if (y > 2) { output[0] = y; } return y; }")
	if err != nil {
		t.Fatal(err)
	}
	f, _ := LowerMiniC(file).Func("f")
	var got []string
	walkOps(f.Body, func(op Op) { got = append(got, op.Display()) })
	want := []string{"{...}", "int y = x + 1", "if (y > 2)", "{...}", "output[0] = y", "return y"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("Display = %q, want %q", got, want)
	}
}

// TestLowerLinearInExpressionDepth: lowering renders no source text, so
// parsing and lowering a statement nested n deep allocates O(n) bytes
// (the AST), not the O(n²) of rendering it.
func TestLowerLinearInExpressionDepth(t *testing.T) {
	frontEndBytes := func(n int) uint64 {
		src := "int f(int x, int *output) { output[0] = " + strings.Repeat("- ", n) + "x; return 0; }"
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		file, err := minic.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		LowerMiniC(file)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const n = 100_000
	small, large := frontEndBytes(n), frontEndBytes(2*n)
	if float64(large) > 2.2*float64(small) {
		t.Errorf("parsing and lowering allocated %d bytes at depth %d but %d at depth %d: superlinear", small, n, large, 2*n)
	}
}
