package privacyscope

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestAnalysisOptionsLegacyDetectorSwitches: the detector switches older
// clients send (noImplicit, timing, probabilistic) decode into the
// detector list they name, so an old daemon request, coordinator fan-out
// or batch config keys and analyzes exactly like its detector-list form.
func TestAnalysisOptionsLegacyDetectorSwitches(t *testing.T) {
	cases := []struct {
		legacy string
		want   []string
	}{
		{`{"noImplicit":true}`, []string{"explicit"}},
		{`{"timing":true}`, []string{"explicit", "implicit", "timing"}},
		{`{"probabilistic":true}`, []string{"explicit", "implicit", "probabilistic"}},
		{`{"noImplicit":true,"timing":true,"probabilistic":true}`, []string{"explicit", "timing", "probabilistic"}},
		{`{"noImplicit":true,"detectors":["default","ocall-pointer"]}`, []string{"explicit", "ocall-pointer"}},
		{`{"timing":true,"detectors":["default","ocall-pointer"]}`, []string{"explicit", "implicit", "timing", "ocall-pointer"}},
		{`{"probabilistic":true,"detectors":["default","ocall-pointer"]}`, []string{"explicit", "implicit", "probabilistic", "ocall-pointer"}},
		{`{"noImplicit":true,"timing":true,"probabilistic":true,"detectors":["default","ocall-pointer"]}`, []string{"explicit", "timing", "probabilistic", "ocall-pointer"}},
	}
	// Each module shows its leak kind exactly when the detector that finds
	// it is selected.
	modules := []struct {
		goldenModule
		kind, detector string
	}{
		{goldenModule{group: "legacy", name: "example2", fn: "example2", c: sectionIVExample2}, "implicit", "implicit"},
		{goldenModule{group: "legacy", name: "listing1", c: listing1C, edl: listing1EDL}, "implicit", "implicit"},
		{goldenModule{group: "legacy", name: "rand-masked", fn: "masked", c: `
int masked(char *secrets, char *output)
{
    output[0] = secrets[0] + rand() % 4;
    return 0;
}
`}, "probabilistic-channel", "probabilistic"},
	}
	for _, c := range cases {
		var legacy AnalysisOptions
		if err := json.Unmarshal([]byte(c.legacy), &legacy); err != nil {
			t.Fatalf("%s: %v", c.legacy, err)
		}
		listForm := AnalysisOptions{Detectors: c.want}
		if got, want := legacy.KeyJSON(), listForm.KeyJSON(); got != want {
			t.Errorf("%s: KeyJSON = %s, want %s", c.legacy, got, want)
		}
		for _, m := range modules {
			got := m.analyze(t, legacy.FacadeOptions()...)
			if a, b := goldenRender(t, got), goldenRender(t, m.analyze(t, listForm.FacadeOptions()...)); a != b {
				t.Errorf("%s on %s: report differs from the detector-list form:\n%s\nvs\n%s", c.legacy, m.name, a, b)
			}
			found := slices.ContainsFunc(got.Findings(), func(f Finding) bool { return f.Kind.String() == m.kind })
			if want := slices.Contains(c.want, m.detector); found != want {
				t.Errorf("%s on %s: %s finding present = %v, want %v", c.legacy, m.name, m.kind, found, want)
			}
		}
	}
}

// TestKnobSurface pins the user-facing settings: the AnalysisOptions JSON
// names, the root package's exported Option constructors and the
// privacyscope CLI's flags. A new knob must show up here as a reviewed
// diff (DESIGN.md §5 counts them).
func TestKnobSurface(t *testing.T) {
	var jsonNames []string
	rt := reflect.TypeOf(AnalysisOptions{})
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		jsonNames = append(jsonNames, name)
	}
	requireSorted(t, "AnalysisOptions JSON names", jsonNames, []string{
		"conservativeExterns", "deadlineMs", "detectors", "knownInputs",
		"loopBound", "maxPaths", "maxSteps", "noWitness",
	})

	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var options []string
	for _, f := range pkgs["privacyscope"].Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() || !strings.HasPrefix(fd.Name.Name, "With") {
				continue
			}
			if r := fd.Type.Results; r != nil && len(r.List) == 1 {
				if id, ok := r.List[0].Type.(*ast.Ident); ok && id.Name == "Option" {
					options = append(options, fd.Name.Name)
				}
			}
		}
	}
	requireSorted(t, "Option constructors", options, []string{
		"WithConfigXML", "WithConservativeExterns", "WithDeadline", "WithDetectors",
		"WithKnownInputs", "WithLoopBound", "WithMaxPaths", "WithMaxSteps",
		"WithObserver", "WithParallelism", "WithTrace", "WithoutPruning",
		"WithoutWitnessReplay",
	})

	cli, err := parser.ParseFile(fset, "cmd/privacyscope/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var flags []string
	ast.Inspect(cli, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != "fs" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			flags = append(flags, name)
		}
		return true
	})
	requireSorted(t, "privacyscope flags", flags, []string{
		"c", "cache-dir", "cache-max-bytes", "config", "conservative-externs",
		"cpuprofile", "detectors", "dir", "edl", "fn", "jobs", "json",
		"loop-bound", "memprofile", "metrics-json", "no-witness", "timeout",
		"trace-out", "verbose", "version",
	})
}

func requireSorted(t *testing.T, what string, got, want []string) {
	t.Helper()
	got = slices.Clone(got)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("%s changed:\ngot  %q\nwant %q", what, got, want)
	}
}
