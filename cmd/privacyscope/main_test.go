package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"privacyscope"
	"privacyscope/internal/mlsuite"
)

const testC = `
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

const testEDL = `
enclave {
    trusted {
        public int enclave_process_data([in] char *secrets, [out] char *output);
    };
};
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunReportsViolations(t *testing.T) {
	cPath := writeTemp(t, "e.c", testC)
	edlPath := writeTemp(t, "e.edl", testEDL)
	var out bytes.Buffer
	code, err := run(context.Background(), []string{"-c", cPath, "-edl", edlPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Errorf("exit code = %d, want 2 (violations)", code)
	}
	text := out.String()
	for _, want := range []string{"explicit", "implicit", "recovery", "secrets[0]"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	cPath := writeTemp(t, "e.c", testC)
	edlPath := writeTemp(t, "e.edl", testEDL)
	var out bytes.Buffer
	code, err := run(context.Background(), []string{"-c", cPath, "-edl", edlPath, "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Errorf("exit code = %d", code)
	}
	var env privacyscope.Envelope
	if err := json.Unmarshal(out.Bytes(), &env); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(env.Findings) != 2 {
		t.Fatalf("findings = %+v", env.Findings)
	}
	var verified bool
	for _, f := range env.Findings {
		if f.Function != "enclave_process_data" {
			t.Errorf("function = %q", f.Function)
		}
		if f.Verified {
			verified = true
		}
	}
	if !verified {
		t.Error("no witness-verified finding in JSON")
	}
	if env.Secure {
		t.Error("secure = true despite findings")
	}
	if env.Paths == 0 || env.States == 0 {
		t.Errorf("envelope paths=%d states=%d, want non-zero", env.Paths, env.States)
	}
	if env.DurationMs <= 0 {
		t.Errorf("durationMs = %v, want > 0", env.DurationMs)
	}
	if env.Metrics == nil {
		t.Fatal("envelope missing metrics snapshot")
	}
	if env.Metrics.Counters["symexec.paths.completed"] == 0 {
		t.Errorf("metrics counters = %+v, want non-zero symexec.paths.completed",
			env.Metrics.Counters)
	}
}

func TestRunSecureExitsZero(t *testing.T) {
	cPath := writeTemp(t, "e.c", `
int f(int *secrets, int *output) {
    output[0] = secrets[0] + secrets[1];
    return 0;
}`)
	edlPath := writeTemp(t, "e.edl",
		"enclave { trusted { public int f([in] int *secrets, [out] int *output); }; };")
	var out bytes.Buffer
	code, err := run(context.Background(), []string{"-c", cPath, "-edl", edlPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
	if !strings.Contains(out.String(), "no nonreversibility violations") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunWithConfig(t *testing.T) {
	cPath := writeTemp(t, "e.c", testC)
	edlPath := writeTemp(t, "e.edl", testEDL)
	cfgPath := writeTemp(t, "rules.xml", `
<privacyscope>
  <function name="enclave_process_data">
    <public param="secrets"/>
  </function>
</privacyscope>`)
	var out bytes.Buffer
	code, err := run(context.Background(), []string{"-c", cPath, "-edl", edlPath, "-config", cfgPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit code = %d, want 0 (secrets declassified by config)", code)
	}
}

func TestRunFlagsAndErrors(t *testing.T) {
	cPath := writeTemp(t, "e.c", testC)
	edlPath := writeTemp(t, "e.edl", testEDL)

	var out bytes.Buffer
	if _, err := run(context.Background(), []string{"-c", cPath}, &out); err == nil {
		t.Error("missing -edl must error")
	}
	if _, err := run(context.Background(), []string{"-c", "nope.c", "-edl", edlPath}, &out); err == nil {
		t.Error("missing C file must error")
	}
	if _, err := run(context.Background(), []string{"-c", cPath, "-edl", "nope.edl"}, &out); err == nil {
		t.Error("missing EDL file must error")
	}
	if _, err := run(context.Background(), []string{"-c", cPath, "-edl", edlPath, "-fn", "missing"}, &out); err == nil {
		t.Error("unknown -fn must error")
	}
	if _, err := run(context.Background(), []string{"-c", cPath, "-edl", edlPath, "-config", "nope.xml"}, &out); err == nil {
		t.Error("missing config must error")
	}
	// The removed detector switches are unknown flags, not silent no-ops.
	for _, flag := range []string{"-no-implicit", "-timing", "-probabilistic"} {
		if _, err := run(context.Background(), []string{"-c", cPath, "-edl", edlPath, flag}, &out); err == nil {
			t.Errorf("removed flag %s must error", flag)
		}
	}
	// -detectors explicit drops the implicit finding.
	out.Reset()
	code, err := run(context.Background(), []string{"-c", cPath, "-edl", edlPath, "-detectors", "explicit", "-json"}, &out)
	if err != nil || code != 2 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	var env privacyscope.Envelope
	if err := json.Unmarshal(out.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Findings) != 1 || env.Findings[0].Kind != "explicit" {
		t.Errorf("findings = %+v", env.Findings)
	}
	// -no-witness skips replay.
	out.Reset()
	if _, err := run(context.Background(), []string{"-c", cPath, "-edl", edlPath, "-no-witness", "-loop-bound", "4", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	env = privacyscope.Envelope{}
	if err := json.Unmarshal(out.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	for _, f := range env.Findings {
		if f.Verified {
			t.Error("witness built despite -no-witness")
		}
	}
	// -fn filter narrows to one function.
	out.Reset()
	code, err = run(context.Background(), []string{"-c", cPath, "-edl", edlPath, "-fn", "enclave_process_data"}, &out)
	if err != nil || code != 2 {
		t.Errorf("code=%d err=%v", code, err)
	}
}

func TestRunTimingFlag(t *testing.T) {
	cPath := writeTemp(t, "e.c", `
int f(int *secrets, int *output) {
    int acc = 0;
    if (secrets[0] > 0) {
        for (int i = 0; i < 8; i++) { acc += i; }
    }
    output[0] = 0;
    return 0;
}`)
	edlPath := writeTemp(t, "e.edl",
		"enclave { trusted { public int f([in] int *secrets, [out] int *output); }; };")
	var out bytes.Buffer
	code, err := run(context.Background(), []string{"-c", cPath, "-edl", edlPath, "-detectors", "default,timing", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Errorf("exit code = %d", code)
	}
	var env privacyscope.Envelope
	if err := json.Unmarshal(out.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	var timing bool
	for _, f := range env.Findings {
		if f.Kind == "timing-channel" {
			timing = true
		}
	}
	if !timing {
		t.Errorf("no timing finding: %+v", env.Findings)
	}
}

func TestRunProbabilisticFlag(t *testing.T) {
	cPath := writeTemp(t, "e.c", `
int f(int *secrets, int *output) {
    output[0] = secrets[0] + rand();
    return 0;
}`)
	edlPath := writeTemp(t, "e.edl",
		"enclave { trusted { public int f([in] int *secrets, [out] int *output); }; };")
	var out bytes.Buffer
	// With the default detectors: secure.
	code, err := run(context.Background(), []string{"-c", cPath, "-edl", edlPath}, &out)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v\n%s", code, err, out.String())
	}
	// With the probabilistic detector: one probabilistic finding.
	out.Reset()
	code, err = run(context.Background(), []string{"-c", cPath, "-edl", edlPath, "-detectors", "default,probabilistic", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	var env privacyscope.Envelope
	if err := json.Unmarshal(out.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Findings) != 1 || env.Findings[0].Kind != "probabilistic-channel" {
		t.Errorf("findings = %+v", env.Findings)
	}
}

// TestRunMetricsJSON drives the full Recommender case study and checks the
// -metrics-json snapshot: per-phase spans and non-zero engine counters.
func TestRunMetricsJSON(t *testing.T) {
	cPath := writeTemp(t, "rec.c", mlsuite.RecommenderC)
	edlPath := writeTemp(t, "rec.edl", mlsuite.RecommenderEDL)
	metricsPath := filepath.Join(t.TempDir(), "metrics.json")
	var out bytes.Buffer
	code, err := run(context.Background(), []string{"-c", cPath, "-edl", edlPath, "-metrics-json", metricsPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Errorf("exit code = %d, want 2 (Recommender leaks)", code)
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Spans    map[string]struct {
			Count      int64 `json:"count"`
			TotalNanos int64 `json:"totalNanos"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v\n%s", err, data)
	}
	for _, span := range []string{"parse", "check", "check/symexec", "check/explicit", "check/implicit", "check/witness"} {
		s, ok := snap.Spans[span]
		if !ok || s.Count == 0 {
			t.Errorf("span %q missing or empty (spans: %v)", span, snap.Spans)
		}
	}
	for _, counter := range []string{
		"symexec.paths.completed", "symexec.forks", "symexec.steps",
		"symexec.states", "solver.queries", "core.witness.replays",
	} {
		if snap.Counters[counter] == 0 {
			t.Errorf("counter %q is zero", counter)
		}
	}
}

// TestRunVerboseStreamsEvents checks that -verbose emits JSON event lines on
// stderr without corrupting stdout.
func TestRunVerboseStreamsEvents(t *testing.T) {
	cPath := writeTemp(t, "e.c", testC)
	edlPath := writeTemp(t, "e.edl", testEDL)

	// -verbose writes to os.Stderr; capture it via a pipe.
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	var out bytes.Buffer
	code, runErr := run(context.Background(), []string{"-c", cPath, "-edl", edlPath, "-verbose", "-json"}, &out)
	w.Close()
	os.Stderr = old
	captured, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if code != 2 {
		t.Errorf("exit code = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(string(captured)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no event lines on stderr")
	}
	for _, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line is not JSON: %v\n%s", err, line)
		}
		if ev["kind"] == nil || ev["name"] == nil {
			t.Errorf("event missing kind/name: %s", line)
		}
	}
	var env privacyscope.Envelope
	if err := json.Unmarshal(out.Bytes(), &env); err != nil {
		t.Fatalf("stdout corrupted by -verbose: %v", err)
	}
}

// branchySecureC has 16 paths with identical observables: secure under full
// exploration, inconclusive under a tight budget or timeout. Both arms of
// each branch add one to the observed acc, so no branch is a faint join.
const branchySecureC = `
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

const branchySecureEDL = `
enclave {
    trusted {
        public int branchy([in] char *secrets, [out] char *output);
    };
};
`

// TestRunInconclusiveExitCode: a truncated clean run exits 3, not 0, and
// the JSON envelope carries the verdict and per-function coverage.
func TestRunInconclusiveExitCode(t *testing.T) {
	cPath := writeTemp(t, "e.c", branchySecureC)
	edlPath := writeTemp(t, "e.edl", branchySecureEDL)

	// Full exploration: secure, exit 0, and the envelope says so.
	var out bytes.Buffer
	code, err := run(context.Background(), []string{"-c", cPath, "-edl", edlPath, "-json"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	var env privacyscope.Envelope
	if err := json.Unmarshal(out.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Verdict != "secure" || !env.Secure {
		t.Errorf("verdict=%q secure=%v, want secure/true", env.Verdict, env.Secure)
	}
	if len(env.Functions) != 1 || env.Functions[0].Coverage.Truncated {
		t.Errorf("functions = %+v, want one fully-covered entry", env.Functions)
	}

	// Immediate timeout: degraded, exit 3, never 0.
	out.Reset()
	code, err = run(context.Background(), []string{"-c", cPath, "-edl", edlPath, "-timeout", "1ns", "-json"}, &out)
	if err != nil {
		t.Fatalf("timeout must degrade, not fail: %v", err)
	}
	if code != 3 {
		t.Errorf("exit code = %d, want 3 (inconclusive)", code)
	}
	env = privacyscope.Envelope{}
	if err := json.Unmarshal(out.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Verdict != "inconclusive" || env.Secure {
		t.Errorf("verdict=%q secure=%v, want inconclusive/false", env.Verdict, env.Secure)
	}
	f := env.Functions[0]
	if f.Verdict != "inconclusive" || !f.Coverage.Truncated || f.Coverage.Reason == "" {
		t.Errorf("function entry = %+v, want truncated coverage with a reason", f)
	}

	// Human-readable mode surfaces the partial coverage too.
	out.Reset()
	code, err = run(context.Background(), []string{"-c", cPath, "-edl", edlPath, "-timeout", "1ns"}, &out)
	if err != nil || code != 3 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	text := out.String()
	if !strings.Contains(text, "INCONCLUSIVE") || !strings.Contains(text, "coverage: PARTIAL") {
		t.Errorf("text report must flag partial coverage:\n%s", text)
	}
	if strings.Contains(text, "no nonreversibility violations detected") {
		t.Errorf("truncated run must not claim a clean bill of health:\n%s", text)
	}
}

// TestRunTimeoutKeepsFindings: findings collected before the cut still
// dominate — exit 2, not 3.
func TestRunTimeoutKeepsFindings(t *testing.T) {
	cPath := writeTemp(t, "e.c", testC)
	edlPath := writeTemp(t, "e.edl", testEDL)
	var out bytes.Buffer
	// A generous timeout that won't fire: behavior identical to no flag.
	code, err := run(context.Background(), []string{"-c", cPath, "-edl", edlPath, "-timeout", "1m", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
	var env privacyscope.Envelope
	if err := json.Unmarshal(out.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Verdict != "findings" {
		t.Errorf("verdict = %q, want findings", env.Verdict)
	}
}

// TestRunProfiles checks -cpuprofile/-memprofile produce non-empty files.
func TestRunProfiles(t *testing.T) {
	cPath := writeTemp(t, "e.c", testC)
	edlPath := writeTemp(t, "e.edl", testEDL)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	if _, err := run(context.Background(), []string{"-c", cPath, "-edl", edlPath, "-cpuprofile", cpu, "-memprofile", mem}, &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestRunVersionFlag: -version prints the build info and exits 0 without
// requiring -c/-edl.
func TestRunVersionFlag(t *testing.T) {
	var out bytes.Buffer
	code, err := run(context.Background(), []string{"-version"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	text := out.String()
	b := privacyscope.Build()
	for _, want := range []string{privacyscope.EngineVersion, b.Fingerprint} {
		if !strings.Contains(text, want) {
			t.Errorf("-version output missing %q:\n%s", want, text)
		}
	}
}

// TestRunEnvelopeCarriesFingerprint: the -json envelope names the engine
// fingerprint — the same value the privacyscoped cache keys on.
func TestRunEnvelopeCarriesFingerprint(t *testing.T) {
	cPath := writeTemp(t, "e.c", testC)
	edlPath := writeTemp(t, "e.edl", testEDL)
	var out bytes.Buffer
	if _, err := run(context.Background(), []string{"-c", cPath, "-edl", edlPath, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var env privacyscope.Envelope
	if err := json.Unmarshal(out.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Engine != privacyscope.Fingerprint() {
		t.Errorf("envelope engine = %q, want fingerprint %q", env.Engine, privacyscope.Fingerprint())
	}
}

// TestRunInterruptedContext: an interrupt (the SIGINT/SIGTERM path of
// main, modeled here by a context cancelled mid-analysis) still prints the
// partial-coverage Inconclusive report and exits 3 instead of dying.
func TestRunInterruptedContext(t *testing.T) {
	cPath := writeTemp(t, "e.c", branchySecureC)
	edlPath := writeTemp(t, "e.edl", branchySecureEDL)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the "signal" arrives before exploration starts
	var out bytes.Buffer
	code, err := run(ctx, []string{"-c", cPath, "-edl", edlPath, "-json"}, &out)
	if err != nil {
		t.Fatalf("interrupt must degrade, not fail: %v", err)
	}
	if code != 3 {
		t.Errorf("exit code = %d, want 3 (inconclusive)", code)
	}
	var env privacyscope.Envelope
	if err := json.Unmarshal(out.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Verdict != "inconclusive" {
		t.Errorf("verdict = %q, want inconclusive", env.Verdict)
	}
	f := env.Functions[0]
	if !f.Coverage.Truncated || f.Coverage.Reason != privacyscope.TruncCancelled {
		t.Errorf("coverage = %+v, want truncated by cancellation", f.Coverage)
	}
}

// signalHelperEnv makes TestSecondSignalTerminates act as the process it
// signals.
const signalHelperEnv = "PRIVACYSCOPE_SIGNAL_HELPER"

// TestSecondSignalTerminates re-runs the test binary as a helper that sets
// up main's interrupt context and then blocks without checking it, as an
// analysis stuck in a long computation does. The first SIGINT cancels the
// context; a second one must kill the helper by the default handler.
func TestSecondSignalTerminates(t *testing.T) {
	if os.Getenv(signalHelperEnv) == "1" {
		_, stop := interruptContext()
		defer stop()
		fmt.Println("ready")
		time.Sleep(time.Minute)
		return
	}
	if runtime.GOOS == "windows" {
		t.Skip("needs POSIX signals")
	}
	if signal.Ignored(os.Interrupt) {
		// A child inherits an ignored SIGINT, and no signal would kill
		// it. A handler here is reset to the default across exec.
		signal.Notify(make(chan os.Signal, 1), os.Interrupt)
		defer signal.Reset(os.Interrupt)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSecondSignalTerminates$", "-test.count=1")
	cmd.Env = append(os.Environ(), signalHelperEnv+"=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	if line, err := bufio.NewReader(stdout).ReadString('\n'); err != nil || line != "ready\n" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("helper did not start: %q, %v", line, err)
	}
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }()

	// The first signal cancels the context; the next ones, sent until the
	// helper exits, must reach the default handler.
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-done:
			ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus)
			if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGINT {
				t.Fatalf("helper exited with %v, want death by SIGINT", cmd.ProcessState)
			}
			return
		case <-tick.C:
			cmd.Process.Signal(os.Interrupt)
		case <-deadline:
			cmd.Process.Kill()
			<-done
			t.Fatal("helper survived repeated SIGINTs: a signal after the first must terminate")
		}
	}
}
