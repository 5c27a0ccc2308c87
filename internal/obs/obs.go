// Package obs is the analyzer's telemetry layer: a lightweight,
// dependency-free observer with wall-clock spans, monotonic counters, value
// distributions, and structured events.
//
// Instrumented code talks to the Observer interface only. The default
// observer is a no-op that costs one interface dispatch and zero
// allocations per call, so instrumented hot paths pay ~nothing when
// observability is off; the engine's per-statement counts skip the
// observer altogether and are published once per entry point. The
// Metrics implementation aggregates everything in memory, is safe for
// concurrent use (WithParallelism analyses share one observer), and
// exports a JSON-serializable Snapshot.
//
// Span hierarchy is encoded in the span name: a child span started with
// Span.Child("symexec") under a span named "check" aggregates under
// "check/symexec". Names are slash-paths rather than an in-memory tree so
// spans may start and end on different goroutines without shared stacks.
//
// See docs/OBSERVABILITY.md for the metric-name registry.
package obs

// Field is one key/value attribute of a structured event.
type Field struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// F constructs a Field.
func F(key, value string) Field { return Field{Key: key, Value: value} }

// Span is an in-flight timed operation. End records the duration under the
// span's slash-path name; Child starts a nested span named
// "<parent>/<name>"; Annotate attaches key/value fields to this span
// *instance* — the Metrics observer mirrors them onto the span's event line,
// the Tracer records them on the span record, and the no-op observer
// discards them for free.
type Span interface {
	Child(name string) Span
	Annotate(fields ...Field)
	End()
}

// Observer receives telemetry from the analyzer. Implementations must be
// safe for concurrent use. All methods must be cheap enough to call from
// the symbolic engine's statement loop.
type Observer interface {
	// StartSpan begins a timed operation. The returned Span must be
	// ended exactly once.
	StartSpan(name string) Span
	// Add bumps a monotonic counter.
	Add(name string, delta int64)
	// Observe records one sample of a value distribution (count, sum,
	// min, max).
	Observe(name string, value int64)
	// Event emits a structured progress event.
	Event(name string, fields ...Field)
}

// StepObserver is an optional extension of Observer for signals too
// frequent to publish one by one. The symbolic engine counts its steps
// itself and publishes the symexec.steps total once per entry point,
// through Add; an observer that also implements StepObserver is told of
// every step as it is taken, before the step runs (the fault-injection
// harness keys faults on the nth step this way). A Multi fan-out does not
// forward steps: wrap the fan-out instead.
type StepObserver interface {
	Step()
}

// Nop returns the shared no-op observer: every method does nothing and
// allocates nothing.
func Nop() Observer { return nop{} }

// Or returns o, or the no-op observer when o is nil, so instrumented code
// never needs a nil check at the call site.
func Or(o Observer) Observer {
	if o == nil {
		return nop{}
	}
	return o
}

type nop struct{}

type nopSpan struct{}

func (nop) StartSpan(string) Span  { return nopSpan{} }
func (nop) Add(string, int64)      {}
func (nop) Observe(string, int64)  {}
func (nop) Event(string, ...Field) {}

func (nopSpan) Child(string) Span { return nopSpan{} }
func (nopSpan) Annotate(...Field) {}
func (nopSpan) End()              {}

// Multi fans every Observer call out to each of the given observers — the
// way a run attaches aggregation (Metrics) and per-instance tracing (Tracer)
// side by side without the instrumented code knowing. Nil and no-op entries
// are dropped; zero live observers collapse to Nop() and one passes through
// unchanged, so the fan-out costs nothing unless it is actually fanning out.
func Multi(os ...Observer) Observer {
	live := make([]Observer, 0, len(os))
	for _, o := range os {
		if o == nil || o == Observer(nop{}) {
			continue
		}
		live = append(live, o)
	}
	switch len(live) {
	case 0:
		return nop{}
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Observer

func (m multi) StartSpan(name string) Span {
	sp := make(multiSpan, len(m))
	for i, o := range m {
		sp[i] = o.StartSpan(name)
	}
	return sp
}

func (m multi) Add(name string, delta int64) {
	for _, o := range m {
		o.Add(name, delta)
	}
}

func (m multi) Observe(name string, value int64) {
	for _, o := range m {
		o.Observe(name, value)
	}
}

func (m multi) Event(name string, fields ...Field) {
	for _, o := range m {
		o.Event(name, fields...)
	}
}

type multiSpan []Span

func (s multiSpan) Child(name string) Span {
	c := make(multiSpan, len(s))
	for i, sp := range s {
		c[i] = sp.Child(name)
	}
	return c
}

func (s multiSpan) Annotate(fields ...Field) {
	for _, sp := range s {
		sp.Annotate(fields...)
	}
}

func (s multiSpan) End() {
	for _, sp := range s {
		sp.End()
	}
}
