package symexec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"privacyscope/internal/ir"
	"privacyscope/internal/minic"
	"privacyscope/internal/obs"
	"privacyscope/internal/sym"
)

// longProgram emits more statements than TraceCap so the trace must drop
// rows.
func longProgram() string {
	var sb strings.Builder
	sb.WriteString("int f(int *secrets, int *output) {\n")
	sb.WriteString("    int acc = 0;\n")
	for i := 0; i < TraceCap+40; i++ {
		fmt.Fprintf(&sb, "    acc = acc + %d;\n", i%7)
	}
	sb.WriteString("    output[0] = acc;\n")
	sb.WriteString("    return 0;\n}\n")
	return sb.String()
}

func TestTraceTruncationIsVisible(t *testing.T) {
	file, err := minic.Parse(longProgram())
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	opts := DefaultOptions()
	opts.TrackTrace = true
	opts.Obs = m
	res, err := New(file, opts).AnalyzeFunction(context.Background(), "f", []ParamSpec{
		{Name: "secrets", Class: ParamSecret},
		{Name: "output", Class: ParamOut},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Len() != TraceCap {
		t.Errorf("trace rows = %d, want cap %d", res.Trace.Len(), TraceCap)
	}
	if res.TraceTruncated == 0 || res.Trace.Dropped() != res.TraceTruncated {
		t.Errorf("TraceTruncated = %d, Dropped = %d; want equal and non-zero",
			res.TraceTruncated, res.Trace.Dropped())
	}
	footer := fmt.Sprintf("… (%d rows omitted)", res.TraceTruncated)
	if !strings.Contains(res.Trace.Render(), footer) {
		t.Errorf("Render missing footer %q", footer)
	}
	if got := m.Counter("symexec.trace.dropped"); got != int64(res.TraceTruncated) {
		t.Errorf("dropped counter = %d, want %d", got, res.TraceTruncated)
	}
}

func TestShortTraceHasNoFooter(t *testing.T) {
	file, err := minic.Parse(`int f(int *secrets, int *output) { output[0] = 1; return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.TrackTrace = true
	res, err := New(file, opts).AnalyzeFunction(context.Background(), "f", []ParamSpec{
		{Name: "secrets", Class: ParamSecret},
		{Name: "output", Class: ParamOut},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceTruncated != 0 {
		t.Errorf("TraceTruncated = %d, want 0", res.TraceTruncated)
	}
	if strings.Contains(res.Trace.Render(), "rows omitted") {
		t.Error("footer rendered for a complete trace")
	}
}

// TestEngineCounters asserts the engine-level telemetry a forking program
// must produce.
func TestEngineCounters(t *testing.T) {
	src := `
int f(int *secrets, int *output) {
    int a = secrets[0];
    if (a > 0) {
        if (a < 0) { output[0] = 1; } else { output[0] = 2; }
    } else { output[0] = 3; }
    return 0;
}`
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	opts := DefaultOptions()
	opts.Obs = m
	res, err := New(file, opts).AnalyzeFunction(context.Background(), "f", []ParamSpec{
		{Name: "secrets", Class: ParamSecret},
		{Name: "output", Class: ParamOut},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("symexec.paths.completed"); got != int64(len(res.Paths)) {
		t.Errorf("paths.completed = %d, want %d", got, len(res.Paths))
	}
	if m.Counter("symexec.forks") < 2 {
		t.Errorf("forks = %d, want ≥ 2", m.Counter("symexec.forks"))
	}
	// a > 0 ∧ a < 0 is infeasible and must be pruned.
	if m.Counter("symexec.paths.pruned") < 1 {
		t.Errorf("paths.pruned = %d, want ≥ 1", m.Counter("symexec.paths.pruned"))
	}
	if m.Counter("symexec.steps") == 0 || m.Counter("symexec.states") == 0 {
		t.Error("steps/states counters must be non-zero")
	}
	if m.Counter("solver.queries") == 0 {
		t.Error("solver queries must be counted through the engine's solver")
	}
	snap := m.Snapshot()
	if snap.Dists["symexec.path.depth"].Count != int64(len(res.Paths)) {
		t.Errorf("path.depth samples = %d, want %d",
			snap.Dists["symexec.path.depth"].Count, len(res.Paths))
	}
}

func TestLoopBoundHitCounter(t *testing.T) {
	src := `
int f(int *secrets, int n, int *output) {
    int i = 0;
    while (i < n) { i++; }
    output[0] = 0;
    return 0;
}`
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	opts := DefaultOptions()
	opts.LoopBound = 3
	opts.Obs = m
	_, err = New(file, opts).AnalyzeFunction(context.Background(), "f", []ParamSpec{
		{Name: "secrets", Class: ParamSecret},
		{Name: "n", Class: ParamPublic},
		{Name: "output", Class: ParamOut},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Counter("symexec.loop.bound_hits") == 0 {
		t.Error("symbolic loop at bound must bump symexec.loop.bound_hits")
	}
}

// TestStepAndStateCountersPublishedAtEnd: the engine publishes
// symexec.steps and symexec.states once per entry point, and the totals
// equal the Result's — on a step-budget-truncated run, and on a run that
// panics mid-exploration, which still publishes what it counted.
func TestStepAndStateCountersPublishedAtEnd(t *testing.T) {
	src := `
int f(char *secrets, char *output)
{
    for (int i = 0; i < 100; i++) {
        if (secrets[i % 4] > i) output[0] = i;
    }
    return 0;
}

int g(char *secrets, char *output)
{
    if (secrets[0] > 1) output[0] = 1;
    return probe(0);
}
`
	params := []ParamSpec{{Name: "secrets", Class: ParamSecret}, {Name: "output", Class: ParamOut}}
	prog := ir.LowerMiniC(minic.MustParse(src))

	m := obs.NewMetrics()
	opts := DefaultOptions()
	opts.Obs = m
	opts.MaxSteps = 150
	res, err := NewIR(prog, opts).AnalyzeFunction(context.Background(), "f", params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage.Reason != TruncStepBudget {
		t.Fatalf("coverage = %+v, want a step-budget truncation", res.Coverage)
	}
	if got := m.Counter("symexec.steps"); got != int64(res.Coverage.StepsUsed) {
		t.Errorf("symexec.steps = %d, want StepsUsed %d", got, res.Coverage.StepsUsed)
	}
	if got := m.Counter("symexec.states"); got != int64(res.States) {
		t.Errorf("symexec.states = %d, want States %d", got, res.States)
	}

	m = obs.NewMetrics()
	opts = DefaultOptions()
	opts.Obs = m
	opts.Intrinsics = map[string]IntrinsicFunc{"probe": func(IntrinsicCall) (sym.Expr, error) { panic("probe") }}
	eng := NewIR(prog, opts)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the probe intrinsic must panic")
			}
		}()
		eng.AnalyzeFunction(context.Background(), "g", params)
	}()
	if eng.steps == 0 || m.Counter("symexec.steps") != eng.steps || m.Counter("symexec.states") != eng.states {
		t.Errorf("after a panic: counters steps=%d states=%d, engine counted %d/%d",
			m.Counter("symexec.steps"), m.Counter("symexec.states"), eng.steps, eng.states)
	}
}
