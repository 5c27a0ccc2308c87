// Package faultinject is a test-only fault harness for the fail-soft
// pipeline. It wraps an obs.Observer and turns the analyzer's own telemetry
// stream into deterministic fault trigger points: every counter bump, event
// and span start is a named signal, as is every engine step (through
// obs.StepObserver), and a fault armed on "symexec.steps" #100 fires on
// exactly the hundredth evaluated statement — no sleeps, no timing races.
//
// Faults available:
//
//   - PanicOn(name, n): panic at the nth occurrence of the signal, to prove
//     panic isolation (one crashing entry point must not take down the run).
//   - DelayOn(name, d): sleep d at every occurrence, to force wall-clock
//     deadlines to expire mid-exploration.
//   - HookOn(name, n, fn): run fn at the nth occurrence — e.g. cancel a
//     context mid-run at a known statement count.
//
// ScopeFunction restricts all faults to one entry point: the injector arms
// when it sees the check.start event carrying that function name and
// disarms at the matching check.done/check.panic. Scoping relies on the
// events of one function not interleaving with another's, so use it with
// sequential analysis only (the default); unscoped injectors are safe under
// WithParallelism. An entry point's paths are explored on one goroutine,
// so under sequential analysis a fault keyed to a statement count fires at
// the same statement on every run.
//
// See docs/ROBUSTNESS.md.
package faultinject

import (
	"fmt"
	"sync"
	"time"

	"privacyscope/internal/obs"
	"privacyscope/internal/symexec"
)

// Injector is an obs.Observer that forwards everything to an inner observer
// and fires configured faults keyed on signal names. Safe for concurrent
// use when unscoped; configure before the analysis starts.
type Injector struct {
	inner obs.Observer

	mu     sync.Mutex
	scope  string // entry function the faults apply to; "" = always armed
	armed  bool
	counts map[string]int
	faults map[string][]*fault
}

type fault struct {
	at      int // 1-based armed occurrence to fire on; 0 = every occurrence
	seen    int // armed occurrences seen so far
	delay   time.Duration
	doPanic bool
	hook    func()
	fired   bool
}

// New returns an Injector forwarding to inner (nil means the no-op
// observer).
func New(inner obs.Observer) *Injector {
	return &Injector{
		inner:  obs.Or(inner),
		armed:  true,
		counts: make(map[string]int),
		faults: make(map[string][]*fault),
	}
}

// ScopeFunction arms the faults only while fn is being checked (between its
// check.start and check.done/check.panic events). Sequential analysis only.
func (i *Injector) ScopeFunction(fn string) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.scope = fn
	i.armed = false
	return i
}

// PanicOn makes the nth occurrence of the named signal panic, simulating an
// engine bug at a deterministic point.
func (i *Injector) PanicOn(name string, n int) *Injector {
	return i.add(name, &fault{at: n, doPanic: true})
}

// DelayOn sleeps d at every occurrence of the named signal, slowing the
// analysis enough for wall-clock deadlines to expire.
func (i *Injector) DelayOn(name string, d time.Duration) *Injector {
	return i.add(name, &fault{delay: d})
}

// HookOn runs fn at the nth occurrence of the named signal (once).
func (i *Injector) HookOn(name string, n int, fn func()) *Injector {
	return i.add(name, &fault{at: n, hook: fn})
}

func (i *Injector) add(name string, f *fault) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.faults[name] = append(i.faults[name], f)
	return i
}

// Count reports how many times the named signal has been seen (while
// armed or not), for test assertions.
func (i *Injector) Count(name string) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.counts[name]
}

// hit records one occurrence of a signal and fires any due faults. Panics
// propagate to the instrumented call site — that is the point.
func (i *Injector) hit(name string) {
	i.mu.Lock()
	i.counts[name]++
	n := i.counts[name]
	var due []*fault
	if i.armed {
		for _, f := range i.faults[name] {
			if f.fired {
				continue
			}
			if f.at == 0 {
				due = append(due, f)
				continue
			}
			// Occurrences count only while armed, so a ScopeFunction fault
			// at #n means "the nth signal inside that function's window".
			f.seen++
			if f.seen == f.at {
				f.fired = true
				due = append(due, f)
			}
		}
	}
	i.mu.Unlock()
	for _, f := range due {
		if f.delay > 0 {
			time.Sleep(f.delay)
		}
		if f.hook != nil {
			f.hook()
		}
		if f.doPanic {
			panic(fmt.Sprintf("faultinject: %s #%d", name, n))
		}
	}
}

// arm flips the scope gate on check lifecycle events.
func (i *Injector) arm(event string, fields []obs.Field) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.scope == "" {
		return
	}
	var fn string
	for _, f := range fields {
		if f.Key == "function" {
			fn = f.Value
		}
	}
	switch event {
	case "check.start":
		i.armed = fn == i.scope
	case "check.done", "check.panic":
		if fn == i.scope {
			i.armed = false
		}
	}
}

// StartSpan implements obs.Observer.
func (i *Injector) StartSpan(name string) obs.Span {
	i.hit(name)
	return injSpan{name: name, inner: i.inner.StartSpan(name), inj: i}
}

// Step implements obs.StepObserver: every engine step is one occurrence
// of the "symexec.steps" signal.
func (i *Injector) Step() { i.hit(stepSignal) }

// stepSignal names the per-step signal. The engine publishes the step
// total once per entry point through Add; that publication is forwarded
// but is not an occurrence, so occurrence n is exactly the nth step.
const stepSignal = "symexec.steps"

// Add implements obs.Observer.
func (i *Injector) Add(name string, delta int64) {
	if name != stepSignal {
		i.hit(name)
	}
	i.inner.Add(name, delta)
}

// Observe implements obs.Observer.
func (i *Injector) Observe(name string, value int64) {
	i.hit(name)
	i.inner.Observe(name, value)
}

// Event implements obs.Observer. Scope arming happens before fault
// dispatch, so a fault on check.start itself fires only for the scoped
// function.
func (i *Injector) Event(name string, fields ...obs.Field) {
	i.arm(name, fields)
	i.hit(name)
	i.inner.Event(name, fields...)
}

type injSpan struct {
	name  string
	inner obs.Span
	inj   *Injector
}

func (s injSpan) Child(name string) obs.Span {
	full := s.name + "/" + name
	s.inj.hit(full)
	return injSpan{name: full, inner: s.inner.Child(name), inj: s.inj}
}

func (s injSpan) Annotate(fields ...obs.Field) { s.inner.Annotate(fields...) }

func (s injSpan) End() { s.inner.End() }

// Pressure returns a copy of opts with the exploration budgets clamped to
// n paths and n steps — the cheap way to force degraded coverage on any
// nontrivial module without waiting for real work.
func Pressure(opts symexec.Options, n int) symexec.Options {
	opts.MaxPaths = n
	opts.MaxSteps = n
	return opts
}
