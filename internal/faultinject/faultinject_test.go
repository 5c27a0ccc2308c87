package faultinject

import (
	"testing"
	"time"

	"privacyscope/internal/obs"
	"privacyscope/internal/symexec"
)

func TestPanicOnNthOccurrence(t *testing.T) {
	inj := New(nil).PanicOn("sig", 3)
	inj.Add("sig", 1)
	inj.Add("sig", 1)
	defer func() {
		if recover() == nil {
			t.Error("third occurrence must panic")
		}
		if inj.Count("sig") != 3 {
			t.Errorf("count = %d, want 3", inj.Count("sig"))
		}
	}()
	inj.Add("sig", 1)
}

func TestPanicFiresOnce(t *testing.T) {
	inj := New(nil).PanicOn("sig", 1)
	func() {
		defer func() { recover() }()
		inj.Add("sig", 1)
	}()
	inj.Add("sig", 1) // must not panic again
}

func TestHookOn(t *testing.T) {
	fired := 0
	inj := New(nil).HookOn("sig", 2, func() { fired++ })
	inj.Observe("sig", 7)
	inj.Observe("sig", 7)
	inj.Observe("sig", 7)
	if fired != 1 {
		t.Errorf("hook fired %d times, want exactly once (at #2)", fired)
	}
}

func TestDelayOnEveryOccurrence(t *testing.T) {
	inj := New(nil).DelayOn("sig", time.Millisecond)
	start := time.Now()
	inj.Add("sig", 1)
	inj.Add("sig", 1)
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Errorf("two delayed hits took %v, want >= 2ms", d)
	}
}

func TestScopeFunctionArming(t *testing.T) {
	fired := 0
	inj := New(nil).ScopeFunction("target").HookOn("sig", 1, func() { fired++ })

	// Unarmed before any check.start: signal does not trigger.
	inj.Add("sig", 1)
	// Another function's window: still unarmed.
	inj.Event("check.start", obs.F("function", "other"))
	inj.Add("sig", 1)
	inj.Event("check.done", obs.F("function", "other"))
	if fired != 0 {
		t.Fatal("fault fired outside its scoped function")
	}
	// The scoped function's window: armed.
	inj.Event("check.start", obs.F("function", "target"))
	inj.Add("sig", 1)
	if fired != 1 {
		t.Fatal("fault must fire inside its scoped function")
	}
	inj.Event("check.done", obs.F("function", "target"))
}

func TestForwardsToInner(t *testing.T) {
	m := obs.NewMetrics()
	inj := New(m)
	inj.Add("c", 2)
	inj.Add("c", 3)
	sp := inj.StartSpan("phase")
	sp.Child("sub").End()
	sp.End()
	if m.Counter("c") != 5 {
		t.Errorf("inner counter = %d, want 5", m.Counter("c"))
	}
	if inj.Count("phase") != 1 || inj.Count("phase/sub") != 1 {
		t.Error("span starts must register as signals")
	}
}

func TestPressure(t *testing.T) {
	got := Pressure(symexec.DefaultOptions(), 3)
	if got.MaxPaths != 3 || got.MaxSteps != 3 {
		t.Errorf("Pressure: MaxPaths=%d MaxSteps=%d, want 3/3", got.MaxPaths, got.MaxSteps)
	}
	if !got.PruneInfeasible {
		t.Error("Pressure must keep unrelated options")
	}
}

// TestStepSignal: every engine step reaches the injector as one
// "symexec.steps" occurrence; the engine's once-per-entry-point total,
// published through Add, is forwarded but is not an occurrence.
func TestStepSignal(t *testing.T) {
	m := obs.NewMetrics()
	fired := 0
	inj := New(m).HookOn("symexec.steps", 3, func() { fired++ })
	var _ obs.StepObserver = inj
	inj.Step()
	inj.Step()
	inj.Add("symexec.steps", 2)
	if fired != 0 || m.Counter("symexec.steps") != 2 {
		t.Fatalf("fired=%d counter=%d after two steps and their total", fired, m.Counter("symexec.steps"))
	}
	inj.Step()
	if fired != 1 || inj.Count("symexec.steps") != 3 {
		t.Errorf("fired=%d count=%d, want the hook on the third step", fired, inj.Count("symexec.steps"))
	}
}
