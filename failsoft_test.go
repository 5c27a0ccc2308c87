package privacyscope

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"privacyscope/internal/faultinject"
	"privacyscope/internal/minic"
)

// A three-ECALL module: one leaky, one clean, one heavy (loop-bound work
// that needs hundreds of thousands of steps). The fail-soft tests degrade
// or kill exactly one of them and assert the others still analyze.
const failsoftC = `
int leaky(char *secrets, char *output) {
    output[0] = secrets[0];
    return 0;
}
int clean(char *secrets, char *output) {
    output[0] = 42;
    return 0;
}
int heavy(char *secrets, char *output) {
    int i = 0;
    int acc = 0;
    while (i < 2000) { acc = acc + i; i++; }
    output[0] = 7;
    return 0;
}
`

const failsoftEDL = `
enclave {
    trusted {
        public int leaky([in] char *secrets, [out] char *output);
        public int clean([in] char *secrets, [out] char *output);
        public int heavy([in] char *secrets, [out] char *output);
    };
};
`

// Secure but branchy: 16 paths, identical observables on every one. Both
// arms of each branch add one to acc, which reaches output[0], so no branch
// is a faint join and every one forks.
const branchyC = `
int branchy(char *secrets, char *output) {
    int acc = 0;
    if (secrets[0] > 0) acc = acc + 1; else acc = 1 + acc;
    if (secrets[1] > 0) acc = acc + 1; else acc = 1 + acc;
    if (secrets[2] > 0) acc = acc + 1; else acc = 1 + acc;
    if (secrets[3] > 0) acc = acc + 1; else acc = 1 + acc;
    output[0] = acc;
    return 0;
}
`

const branchyEDL = `
enclave {
    trusted {
        public int branchy([in] char *secrets, [out] char *output);
    };
};
`

func reportByName(t *testing.T, rep *EnclaveReport, fn string) *Report {
	t.Helper()
	for _, r := range rep.Reports {
		if r.Function == fn {
			return r
		}
	}
	t.Fatalf("no report for %q", fn)
	return nil
}

// TestPanicIsolationSequential injects a panic into one entry point's
// exploration and requires the module analysis to survive: the panicking
// function becomes an error report, its siblings analyze normally.
func TestPanicIsolationSequential(t *testing.T) {
	m := NewMetrics()
	inj := faultinject.New(m).ScopeFunction("clean").PanicOn("symexec.steps", 1)
	rep, err := AnalyzeEnclave(failsoftC, failsoftEDL, WithObserver(inj))
	if err != nil {
		t.Fatalf("one panicking ECALL must not fail the module: %v", err)
	}
	if len(rep.Reports) != 3 {
		t.Fatalf("want 3 reports, got %d", len(rep.Reports))
	}

	crashed := reportByName(t, rep, "clean")
	if crashed.Err == "" || !strings.Contains(crashed.Err, "panic") {
		t.Errorf("clean.Err = %q, want a panic message", crashed.Err)
	}
	if crashed.Verdict() != VerdictError {
		t.Errorf("crashed verdict = %v, want error", crashed.Verdict())
	}
	if crashed.Secure() {
		t.Error("a crashed analysis must never read as secure")
	}

	if leaky := reportByName(t, rep, "leaky"); len(leaky.Findings) == 0 {
		t.Error("sibling 'leaky' must still produce its findings")
	}
	if heavy := reportByName(t, rep, "heavy"); heavy.Err != "" || len(heavy.Findings) != 0 {
		t.Errorf("sibling 'heavy' must still analyze cleanly: err=%q findings=%d",
			heavy.Err, len(heavy.Findings))
	}

	if got := rep.Errors(); len(got) != 1 || !strings.HasPrefix(got[0], "clean: ") {
		t.Errorf("Errors() = %v, want exactly [clean: ...]", got)
	}
	if rep.Verdict() != VerdictFindings {
		t.Errorf("module verdict = %v, want findings (leaky's findings dominate)", rep.Verdict())
	}
	if m.Counter("check.panics") != 1 {
		t.Errorf("check.panics = %d, want 1", m.Counter("check.panics"))
	}
	if !strings.Contains(rep.Render(), "ANALYSIS ERROR") {
		t.Error("Render must surface the per-function analysis error")
	}
}

// TestPanicIsolationParallel does the same under WithParallelism: the panic
// fires on one worker goroutine and must not escape the pool.
func TestPanicIsolationParallel(t *testing.T) {
	m := NewMetrics()
	inj := faultinject.New(m).PanicOn("symexec.steps", 50)
	rep, err := AnalyzeEnclave(failsoftC, failsoftEDL,
		WithObserver(inj), WithParallelism(3))
	if err != nil {
		t.Fatalf("a panicking worker must not fail the module: %v", err)
	}
	errored := 0
	for _, r := range rep.Reports {
		if r == nil {
			t.Fatal("every job slot must hold a report")
		}
		if r.Err != "" {
			errored++
		}
	}
	if errored != 1 {
		t.Errorf("want exactly 1 errored entry point, got %d", errored)
	}
	if m.Counter("check.panics") != 1 {
		t.Errorf("check.panics = %d, want 1", m.Counter("check.panics"))
	}
}

// TestDeadlineDegradesOneFunction slows one entry point until its
// WithDeadline budget expires: that function degrades to partial coverage
// with an Inconclusive verdict; the siblings keep their full budgets.
func TestDeadlineDegradesOneFunction(t *testing.T) {
	m := NewMetrics()
	inj := faultinject.New(m).ScopeFunction("heavy").
		DelayOn("symexec.steps", time.Millisecond)
	rep, err := AnalyzeEnclave(failsoftC, failsoftEDL,
		WithObserver(inj), WithDeadline(25*time.Millisecond))
	if err != nil {
		t.Fatalf("deadline expiry must degrade, not fail: %v", err)
	}

	heavy := reportByName(t, rep, "heavy")
	if !heavy.Coverage.Truncated || heavy.Coverage.Reason != TruncDeadline {
		t.Errorf("heavy coverage = %+v, want deadline truncation", heavy.Coverage)
	}
	if heavy.Verdict() != VerdictInconclusive {
		t.Errorf("heavy verdict = %v, want inconclusive", heavy.Verdict())
	}
	if heavy.Secure() {
		t.Error("a deadline-truncated run must never read as secure")
	}

	if clean := reportByName(t, rep, "clean"); !clean.Secure() {
		t.Errorf("sibling 'clean' keeps its own budget and stays secure: %+v", clean.Coverage)
	}
	if leaky := reportByName(t, rep, "leaky"); len(leaky.Findings) == 0 {
		t.Error("sibling 'leaky' must still produce findings")
	}

	if got := rep.Degraded(); len(got) != 1 || got[0].Function != "heavy" {
		t.Errorf("Degraded() = %v, want exactly [heavy]", got)
	}
	if m.Counter("check.degraded") != 1 || m.Counter("check.cancelled") != 1 {
		t.Errorf("check.degraded=%d check.cancelled=%d, want 1/1",
			m.Counter("check.degraded"), m.Counter("check.cancelled"))
	}
	if !strings.Contains(rep.Render(), "coverage: PARTIAL") {
		t.Error("Render must surface partial coverage")
	}
}

// TestCancellationMidRun cancels the context at a known statement count and
// requires the engine to notice within one step-check interval.
func TestCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faultinject.New(nil).ScopeFunction("heavy").
		HookOn("symexec.steps", 100, cancel)
	rep, err := AnalyzeEnclaveContext(ctx, failsoftC, failsoftEDL, WithObserver(inj))
	if err != nil {
		t.Fatalf("cancellation must degrade, not fail: %v", err)
	}
	heavy := reportByName(t, rep, "heavy")
	if !heavy.Coverage.Truncated || heavy.Coverage.Reason != TruncCancelled {
		t.Errorf("heavy coverage = %+v, want cancellation truncation", heavy.Coverage)
	}
	// The engine polls ctx every 32 steps (ctxCheckInterval); cancelling at
	// step 100 must stop it by step 132.
	if heavy.Coverage.StepsUsed > 132 {
		t.Errorf("cancelled at step 100, engine ran to %d (want <= 132)",
			heavy.Coverage.StepsUsed)
	}
	if rep.Secure() {
		t.Error("a cancelled module must never read as secure")
	}
}

// TestPreCancelledContext: an already-dead context still yields a report
// per entry point, every one degraded, none erroring.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := AnalyzeEnclaveContext(ctx, failsoftC, failsoftEDL)
	if err != nil {
		t.Fatalf("pre-cancelled ctx must degrade, not fail: %v", err)
	}
	if len(rep.Reports) != 3 {
		t.Fatalf("want 3 reports, got %d", len(rep.Reports))
	}
	heavy := reportByName(t, rep, "heavy")
	if !heavy.Coverage.Truncated || heavy.Coverage.Reason != TruncCancelled {
		t.Errorf("heavy coverage = %+v, want cancellation truncation", heavy.Coverage)
	}
	if heavy.Coverage.StepsUsed > 32 {
		t.Errorf("pre-cancelled ctx must stop within one check interval, used %d steps",
			heavy.Coverage.StepsUsed)
	}
}

// TestInconclusiveNeverSecure is the core soundness property of this layer:
// a truncated exploration that found nothing must not claim security.
func TestInconclusiveNeverSecure(t *testing.T) {
	full, err := AnalyzeEnclave(branchyC, branchyEDL)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Secure() || full.Verdict() != VerdictSecure {
		t.Fatalf("branchy module is secure under full exploration: %s", full.Render())
	}

	cut, err := AnalyzeEnclave(branchyC, branchyEDL, WithMaxPaths(2))
	if err != nil {
		t.Fatalf("path budget exhaustion must degrade, not fail: %v", err)
	}
	r := cut.Reports[0]
	if !r.Coverage.Truncated || r.Coverage.Reason != TruncPathBudget {
		t.Fatalf("coverage = %+v, want path-budget truncation", r.Coverage)
	}
	if r.Coverage.CompletedPaths != 2 {
		t.Errorf("CompletedPaths = %d, want 2", r.Coverage.CompletedPaths)
	}
	if cut.Secure() || r.Secure() {
		t.Error("truncated no-findings run must NOT read as secure")
	}
	if v := cut.Verdict(); v != VerdictInconclusive {
		t.Errorf("verdict = %v, want inconclusive", v)
	}
	out := r.Render()
	if !strings.Contains(out, "INCONCLUSIVE") {
		t.Errorf("render must say INCONCLUSIVE:\n%s", out)
	}
	if strings.Contains(out, "no nonreversibility violations detected") {
		t.Errorf("render must not claim a clean bill of health:\n%s", out)
	}
}

// TestFindingsDominateTruncation: findings already collected before the
// budget cut are reported, and the verdict is findings, not inconclusive.
func TestFindingsDominateTruncation(t *testing.T) {
	rep, err := AnalyzeEnclave(failsoftC, failsoftEDL, WithMaxSteps(40))
	if err != nil {
		t.Fatalf("budget exhaustion must degrade, not fail: %v", err)
	}
	leaky := reportByName(t, rep, "leaky")
	if len(leaky.Findings) == 0 {
		t.Fatal("leaky's single straight-line path fits 40 steps and must report its leak")
	}
	if leaky.Verdict() != VerdictFindings {
		t.Errorf("verdict = %v, want findings", leaky.Verdict())
	}
	if rep.Verdict() != VerdictFindings {
		t.Errorf("module verdict = %v, want findings (leaks dominate truncation)", rep.Verdict())
	}
}

// TestAnalyzeFunctionContextDegrades covers the single-function facade.
func TestAnalyzeFunctionContextDegrades(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := AnalyzeFunctionContext(ctx, failsoftC, "heavy",
		[]ParamSpec{{Name: "secrets", Class: ParamSecret}, {Name: "output", Class: ParamOut}})
	if err != nil {
		t.Fatalf("cancellation must degrade, not fail: %v", err)
	}
	if !rep.Coverage.Truncated || rep.Coverage.Reason != TruncCancelled {
		t.Errorf("coverage = %+v, want cancellation truncation", rep.Coverage)
	}
	if rep.Verdict() != VerdictInconclusive {
		t.Errorf("verdict = %v, want inconclusive", rep.Verdict())
	}
	// Module-level problems still error.
	if _, err := AnalyzeFunctionContext(context.Background(), "int f(", "f", nil); err == nil {
		t.Error("unparseable source must still return an error")
	}
	if _, err := AnalyzeFunctionContext(context.Background(), failsoftC, "missing", nil); err == nil {
		t.Error("unknown entry function must still return an error")
	}
}

// TestDeepNestingIsAnError: a module nested past the parser's bound (here
// 2,000,000 parentheses, which once overflowed the stack) is refused with
// the parser's error, never analyzed into a report, and one level past the
// bound is refused the same way.
func TestDeepNestingIsAnError(t *testing.T) {
	const edlSrc = `enclave { trusted { public int f([in] int *secrets); }; };`
	// The body's statements sit at level 1, so k blocks nested around an
	// empty statement reach level k+1.
	blocks := func(k int) string {
		return "int f(int *secrets) {\n" + strings.Repeat("{", k) + ";" + strings.Repeat("}", k) + "\n    return 0;\n}\n"
	}
	if _, err := AnalyzeEnclave(blocks(minic.MaxNesting-1), edlSrc); err != nil {
		t.Fatalf("nesting at the bound: %v", err)
	}
	const n = 2_000_000
	for name, src := range map[string]string{
		"one level past": blocks(minic.MaxNesting),
		"parentheses": "int f(int *secrets) {\n    return " + strings.Repeat("(", n) + "secrets[0]" +
			strings.Repeat(")", n) + ";\n}\n",
	} {
		rep, err := AnalyzeEnclave(src, edlSrc)
		var perr *minic.Error
		if !errors.As(err, &perr) || !strings.Contains(perr.Msg, "nesting deeper than") {
			t.Errorf("%s: err = %v, want the parser's nesting error", name, err)
		}
		if rep != nil {
			t.Errorf("%s: got a %v report, want none", name, rep.Verdict())
		}
	}
}
