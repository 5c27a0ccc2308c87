package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer is the per-analysis tracing Observer: where Metrics folds span
// completions into per-name aggregates, the Tracer records every span
// *instance* — span ID, parent link (carried by the Span handle, so
// parent/child stays correct when concurrent jobs end spans on different
// goroutines), start offset, duration, and annotated fields — into a
// bounded per-trace buffer. Events record as zero-duration marks on the same timeline (the
// batch driver's cache-hit/verdict markers).
//
// A Tracer observes ONE analysis (one trace); it is cheap to create, safe
// for concurrent use, and runs next to a Metrics via Multi:
//
//	tr := obs.NewTracer()
//	ob := obs.Multi(metrics, tr)
//	... analyze with ob ...
//	tr.WriteChromeTrace(f) // chrome://tracing / Perfetto loadable
//	tree := tr.Snapshot()  // compact JSON span tree for the envelope
//
// The buffer is bounded (TracerCap by default): past the cap, completions
// degrade to a counted drop (Snapshot.DroppedSpans), never an error and
// never unbounded memory. Counters and distributions are Metrics' business —
// the Tracer ignores Add/Observe for free.
type Tracer struct {
	start   time.Time
	traceID string
	cap     int

	nextID atomic.Int64

	mu      sync.Mutex
	spans   []SpanRecord
	marks   []TraceMark
	lanes   map[int]string
	dropped int64
	mDrop   int64
}

// TracerCap is the default bound on recorded span instances (and,
// separately, marks) per trace.
const TracerCap = 16384

// TracerOption configures a Tracer.
type TracerOption func(*Tracer)

// WithTraceCap overrides the span-buffer bound (n ≤ 0 keeps the default).
func WithTraceCap(n int) TracerOption {
	return func(t *Tracer) {
		if n > 0 {
			t.cap = n
		}
	}
}

// WithTraceID pins the trace ID (e.g. one ingested from a W3C traceparent
// header) instead of generating a fresh one.
func WithTraceID(id string) TracerOption {
	return func(t *Tracer) {
		if id != "" {
			t.traceID = id
		}
	}
}

// NewTracer returns an empty per-analysis tracer with a fresh trace ID.
func NewTracer(opts ...TracerOption) *Tracer {
	t := &Tracer{
		start: time.Now(),
		cap:   TracerCap,
		lanes: map[int]string{},
	}
	for _, o := range opts {
		o(t)
	}
	if t.traceID == "" {
		t.traceID = NewTraceID()
	}
	return t
}

// TraceID returns the trace's 32-hex-digit identifier.
func (t *Tracer) TraceID() string { return t.traceID }

// SpanRecord is one completed span instance.
type SpanRecord struct {
	// ID identifies the instance within the trace; Parent is 0 for roots.
	ID     int64 `json:"id"`
	Parent int64 `json:"parent,omitempty"`
	// Lane is the timeline lane (Chrome trace tid); 0 unless the span was
	// started through a Lane observer (the batch driver's worker lanes).
	Lane int    `json:"lane,omitempty"`
	Name string `json:"name"`
	// StartUs is the offset since trace start, DurUs the duration, both in
	// microseconds.
	StartUs int64   `json:"startUs"`
	DurUs   int64   `json:"durUs"`
	Fields  []Field `json:"fields,omitempty"`
}

// TraceMark is one instant event on the trace timeline.
type TraceMark struct {
	Name   string  `json:"name"`
	Lane   int     `json:"lane,omitempty"`
	AtUs   int64   `json:"atUs"`
	Fields []Field `json:"fields,omitempty"`
}

// StartSpan begins a root span on lane 0.
func (t *Tracer) StartSpan(name string) Span { return t.startSpan(name, 0, 0) }

// Add is a no-op: counters are aggregate state, the Metrics side of a
// Multi. Keeping it free means a Tracer never taxes the statement loop.
func (t *Tracer) Add(string, int64) {}

// Observe is a no-op, like Add.
func (t *Tracer) Observe(string, int64) {}

// Event records an instant mark at the current offset, bounded like spans.
func (t *Tracer) Event(name string, fields ...Field) { t.mark(name, 0, fields) }

// Lane returns a view of the tracer whose root spans and marks land on the
// given timeline lane (Chrome trace "thread"). The batch driver hands each
// pool worker its own lane, which is what makes pool occupancy and
// stragglers visible in the exported timeline. Lane 0 is the tracer itself.
func (t *Tracer) Lane(id int, name string) Observer {
	t.mu.Lock()
	if name != "" {
		t.lanes[id] = name
	}
	t.mu.Unlock()
	return laneObserver{t: t, lane: id}
}

type laneObserver struct {
	t    *Tracer
	lane int
}

func (l laneObserver) StartSpan(name string) Span { return l.t.startSpan(name, 0, l.lane) }
func (l laneObserver) Add(string, int64)          {}
func (l laneObserver) Observe(string, int64)      {}
func (l laneObserver) Event(name string, fields ...Field) {
	l.t.mark(name, l.lane, fields)
}

func (t *Tracer) startSpan(name string, parent int64, lane int) Span {
	return &tracerSpan{
		t:      t,
		id:     t.nextID.Add(1),
		parent: parent,
		lane:   lane,
		name:   name,
		start:  time.Now(),
	}
}

func (t *Tracer) mark(name string, lane int, fields []Field) {
	at := time.Since(t.start).Microseconds()
	t.mu.Lock()
	if len(t.marks) >= t.cap {
		t.mDrop++
	} else {
		t.marks = append(t.marks, TraceMark{
			Name: name, Lane: lane, AtUs: at, Fields: cloneFields(fields),
		})
	}
	t.mu.Unlock()
}

// tracerSpan is one in-flight span instance. The handle carries the parent
// link, so Child spans stay correctly parented no matter which goroutine
// ends them (concurrent per-ECALL jobs each end their own).
type tracerSpan struct {
	t      *Tracer
	id     int64
	parent int64
	lane   int
	name   string
	start  time.Time

	mu     sync.Mutex
	fields []Field
}

func (s *tracerSpan) Child(name string) Span {
	return s.t.startSpan(s.name+"/"+name, s.id, s.lane)
}

func (s *tracerSpan) Annotate(fields ...Field) {
	if len(fields) == 0 {
		return
	}
	s.mu.Lock()
	s.fields = append(s.fields, fields...)
	s.mu.Unlock()
}

func (s *tracerSpan) End() {
	dur := time.Since(s.start).Microseconds()
	startUs := s.start.Sub(s.t.start).Microseconds()
	s.mu.Lock()
	fields := s.fields
	s.fields = nil
	s.mu.Unlock()
	name := s.name
	if s.parent != 0 {
		name = lastSeg(name)
	}
	t := s.t
	t.mu.Lock()
	if len(t.spans) >= t.cap {
		t.dropped++
	} else {
		t.spans = append(t.spans, SpanRecord{
			ID: s.id, Parent: s.parent, Lane: s.lane, Name: name,
			StartUs: startUs, DurUs: dur, Fields: fields,
		})
	}
	t.mu.Unlock()
}

// lastSeg strips the aggregate slash-path prefix from child spans: trace
// records carry real parent links, so "check/symexec" records as "symexec"
// under its parent. Root spans keep their full name — a span started cold
// with a slash-path (Metrics-style aggregation naming, e.g.
// "check/witness") stays self-describing when it roots itself.
func lastSeg(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}

func cloneFields(fields []Field) []Field {
	if len(fields) == 0 {
		return nil
	}
	return append([]Field(nil), fields...)
}

// TraceSpan is one node of the exported span tree.
type TraceSpan struct {
	Name    string       `json:"name"`
	Lane    int          `json:"lane,omitempty"`
	StartUs int64        `json:"startUs"`
	DurUs   int64        `json:"durUs"`
	Fields  []Field      `json:"fields,omitempty"`
	Spans   []*TraceSpan `json:"spans,omitempty"`
}

// TraceSnapshot is the compact JSON form of one trace: the span forest (a
// span whose parent is still open — or was dropped at the cap — roots
// itself), the instant marks, and the drop counts.
type TraceSnapshot struct {
	TraceID string       `json:"traceId"`
	Spans   []*TraceSpan `json:"spans"`
	Marks   []TraceMark  `json:"marks,omitempty"`
	// DroppedSpans / DroppedMarks count records lost to the buffer cap —
	// the bounded buffer's fail-soft: a hot trace loses detail, never
	// correctness and never memory.
	DroppedSpans int64 `json:"droppedSpans,omitempty"`
	DroppedMarks int64 `json:"droppedMarks,omitempty"`
}

// Snapshot assembles the span tree from the records completed so far.
func (t *Tracer) Snapshot() *TraceSnapshot {
	t.mu.Lock()
	records := append([]SpanRecord(nil), t.spans...)
	marks := append([]TraceMark(nil), t.marks...)
	snap := &TraceSnapshot{
		TraceID:      t.traceID,
		Marks:        marks,
		DroppedSpans: t.dropped,
		DroppedMarks: t.mDrop,
	}
	t.mu.Unlock()

	nodes := make(map[int64]*TraceSpan, len(records))
	for _, r := range records {
		nodes[r.ID] = &TraceSpan{
			Name: r.Name, Lane: r.Lane, StartUs: r.StartUs, DurUs: r.DurUs, Fields: r.Fields,
		}
	}
	snap.Spans = []*TraceSpan{}
	for _, r := range records {
		if parent, ok := nodes[r.Parent]; ok && r.Parent != r.ID {
			parent.Spans = append(parent.Spans, nodes[r.ID])
		} else {
			snap.Spans = append(snap.Spans, nodes[r.ID])
		}
	}
	var sortTree func([]*TraceSpan)
	sortTree = func(ss []*TraceSpan) {
		sort.SliceStable(ss, func(i, j int) bool { return ss[i].StartUs < ss[j].StartUs })
		for _, s := range ss {
			sortTree(s.Spans)
		}
	}
	sortTree(snap.Spans)
	return snap
}

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// chrome://tracing and Perfetto load). "X" = complete span, "i" = instant,
// "M" = metadata (lane names).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TsUs  int64          `json:"ts"`
	DurUs int64          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports the trace in Chrome trace-event format:
// `{"traceEvents": [...]}` with one complete ("X") event per span record,
// one instant ("i") event per mark, and thread-name metadata naming each
// lane. Load the file in chrome://tracing or https://ui.perfetto.dev.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	records := append([]SpanRecord(nil), t.spans...)
	marks := append([]TraceMark(nil), t.marks...)
	laneNames := make(map[int]string, len(t.lanes))
	for id, name := range t.lanes {
		laneNames[id] = name
	}
	t.mu.Unlock()

	events := make([]chromeEvent, 0, len(records)+len(marks)+len(laneNames)+1)
	usedLanes := map[int]bool{}
	for _, r := range records {
		usedLanes[r.Lane] = true
		events = append(events, chromeEvent{
			Name: r.Name, Cat: "span", Phase: "X",
			TsUs: r.StartUs, DurUs: maxI64(r.DurUs, 1),
			Pid: 1, Tid: r.Lane, Args: fieldArgs(r.Fields),
		})
	}
	for _, m := range marks {
		usedLanes[m.Lane] = true
		events = append(events, chromeEvent{
			Name: m.Name, Cat: "mark", Phase: "i",
			TsUs: m.AtUs, Pid: 1, Tid: m.Lane, Scope: "t",
			Args: fieldArgs(m.Fields),
		})
	}
	// Every registered lane gets its metadata row even when it recorded
	// nothing — an idle pool worker is information, not noise.
	for lane := range laneNames {
		usedLanes[lane] = true
	}
	for lane := range usedLanes {
		name, ok := laneNames[lane]
		if !ok {
			if lane == 0 {
				name = "main"
			} else {
				name = fmt.Sprintf("lane %d", lane)
			}
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Phase: "M", Pid: 1, Tid: lane,
			Args: map[string]any{"name": name},
		})
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Phase == "M" != (events[j].Phase == "M") {
			return events[i].Phase == "M"
		}
		return events[i].TsUs < events[j].TsUs
	})
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]string{"traceId": t.traceID},
	})
}

func fieldArgs(fields []Field) map[string]any {
	if len(fields) == 0 {
		return nil
	}
	args := make(map[string]any, len(fields))
	for _, f := range fields {
		args[f.Key] = f.Value
	}
	return args
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// NewTraceID returns a fresh 16-byte trace ID in lowercase hex — the W3C
// trace-context format.
func NewTraceID() string {
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// Degrade to a time-derived ID rather than failing: trace IDs need
		// uniqueness-in-practice, not cryptographic strength.
		return fmt.Sprintf("%032x", time.Now().UnixNano())
	}
	return hex.EncodeToString(buf[:])
}

// NewSpanID returns a fresh 8-byte span ID in lowercase hex.
func NewSpanID() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return fmt.Sprintf("%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(buf[:])
}

// ParseTraceparent extracts the trace ID and parent span ID from a W3C
// traceparent header ("00-<32 hex>-<16 hex>-<2 hex>"). ok is false for
// anything malformed (including the all-zero trace ID the spec forbids) —
// callers then mint their own trace ID.
func ParseTraceparent(header string) (traceID, parentID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(header), "-")
	if len(parts) != 4 {
		return "", "", false
	}
	version, tid, pid, flags := parts[0], parts[1], parts[2], parts[3]
	if len(version) != 2 || len(tid) != 32 || len(pid) != 16 || len(flags) != 2 {
		return "", "", false
	}
	for _, s := range []string{version, tid, pid, flags} {
		if !isLowerHex(s) {
			return "", "", false
		}
	}
	if version == "ff" || tid == strings.Repeat("0", 32) || pid == strings.Repeat("0", 16) {
		return "", "", false
	}
	return tid, pid, true
}

// FormatTraceparent renders a traceparent header for the given trace and
// span IDs, with the sampled flag set.
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

func isLowerHex(s string) bool {
	for _, r := range s {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return len(s) > 0
}
