package obs

// Span tracing: a zero-dependency tracer that records named, timed spans
// into a fixed-capacity ring buffer. Tracing is disabled by default —
// StartSpan returns a nil *Span whose methods are no-ops, so the cost of
// an instrumented call site in the disabled state is one atomic pointer
// load. Enabled, a span costs one allocation at start and one ring push
// under a short mutex at end; nothing a span does can influence program
// results (no RNG, no control flow, clock reads stay inside this
// package), which is the "inert tracing" contract DESIGN.md §11 states
// and the determinism smoke test enforces end to end.
//
// Completed spans drain as SpanRecords, exportable as JSONL (one record
// per line) or as Chrome trace_event JSON loadable in Perfetto or
// chrome://tracing.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is one completed span as it sits in the ring buffer.
type SpanRecord struct {
	// ID identifies the span within the process. IDs are assigned from
	// one atomic counter at StartSpan, so they double as a start
	// sequence: sorting by ID recovers start order exactly, regardless
	// of end (= ring insertion) order.
	ID uint64 `json:"id"`
	// Parent is the ID of the enclosing span in this process, 0 for
	// roots.
	Parent uint64 `json:"parent,omitempty"`
	// Trace is the 32-hex-digit cross-process trace ID the span belongs
	// to (empty when the span's context carried no TraceContext); Remote
	// is the caller's span ID from the propagated traceparent, stamped
	// only on spans with no in-process parent, so a server-side root
	// nests under the client span that caused it.
	Trace  string `json:"trace,omitempty"`
	Remote string `json:"remote,omitempty"`
	Name   string `json:"name"`
	// StartNS is the span's wall-clock start in Unix nanoseconds; DurNS
	// its duration.
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	// Attrs are the key/value attributes attached with SetAttr, in
	// attachment order.
	Attrs []Attr `json:"attrs,omitempty"`
}

// Attr is one span attribute. Values should be strings, bools, or
// numeric types so the JSON exports stay flat.
type Attr struct {
	Key   string `json:"k"`
	Value any    `json:"v"`
}

// Tracer owns the span ring buffer. Use EnableTracing / DisableTracing
// to install one process-wide; spans from all instrumented layers land
// in the same ring.
type Tracer struct {
	nextID atomic.Uint64

	mu      sync.Mutex
	buf     []SpanRecord //dwmlint:guard mu
	next    int          //dwmlint:guard mu
	full    bool         //dwmlint:guard mu
	dropped int64        //dwmlint:guard mu
}

// NewTracer returns a tracer with a ring of the given capacity
// (minimum 16).
func NewTracer(capacity int) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	return &Tracer{buf: make([]SpanRecord, 0, capacity)}
}

// push appends a completed span, overwriting the oldest record when the
// ring is full.
func (t *Tracer) push(rec SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, rec)
		return
	}
	t.buf[t.next] = rec
	t.next = (t.next + 1) % len(t.buf)
	t.full = true
	t.dropped++
}

// Drain returns the buffered spans oldest-first and clears the ring.
// The second result is how many spans were overwritten (ring overflow)
// since the previous drain.
func (t *Tracer) Drain() ([]SpanRecord, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.buf))
	if t.full {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	dropped := t.dropped
	t.buf = t.buf[:0]
	t.next = 0
	t.full = false
	t.dropped = 0
	return out, dropped
}

// tracer is the process-wide tracer; nil means tracing is disabled.
var tracer atomic.Pointer[Tracer]

// EnableTracing installs a process-wide tracer with a ring of the given
// capacity, replacing (and discarding) any previous one.
func EnableTracing(capacity int) {
	tracer.Store(NewTracer(capacity))
}

// DisableTracing removes the process-wide tracer; buffered spans are
// discarded and subsequent StartSpan calls become no-ops.
func DisableTracing() {
	tracer.Store(nil)
}

// TracingEnabled reports whether a process-wide tracer is installed.
func TracingEnabled() bool { return tracer.Load() != nil }

// DrainSpans drains the process-wide ring; it returns nil, 0 when
// tracing is disabled.
func DrainSpans() ([]SpanRecord, int64) {
	t := tracer.Load()
	if t == nil {
		return nil, 0
	}
	return t.Drain()
}

// Span is one in-flight operation. A nil *Span (tracing disabled) is
// valid: every method is a no-op, so call sites never branch on the
// tracing state themselves.
type Span struct {
	t      *Tracer
	name   string
	id     uint64
	parent uint64
	trace  string
	remote uint64 // remote parent span ID, roots of a propagated trace only
	start  time.Time
	attrs  []Attr
	ended  atomic.Bool
}

// spanCtxKey carries the current span ID through a context for
// parent/child linking.
type spanCtxKey struct{}

// StartSpan begins a span. When tracing is disabled it returns the
// context unchanged and a nil span; when enabled, the returned context
// carries the new span's ID so descendant StartSpan calls nest under
// it. If the context carries a TraceContext (see ContextWithTrace), the
// span records its trace ID — and, for the first span of the trace in
// this process, the propagated remote parent — and the returned context
// advances the TraceContext's SpanID to this span, so an outbound call
// made under it names the nearest enclosing span as its parent. The
// span must be finished with End (typically deferred).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := tracer.Load()
	if t == nil {
		return ctx, nil
	}
	var parent uint64
	if p, ok := ctx.Value(spanCtxKey{}).(uint64); ok {
		parent = p
	}
	s := &Span{
		t:      t,
		name:   name,
		id:     t.nextID.Add(1),
		parent: parent,
		start:  time.Now(),
	}
	if tc, ok := TraceFromContext(ctx); ok {
		s.trace = tc.TraceID
		if parent == 0 {
			s.remote = tc.SpanID
		}
		ctx = ContextWithTrace(ctx, TraceContext{TraceID: tc.TraceID, SpanID: s.id})
	}
	return context.WithValue(ctx, spanCtxKey{}, s.id), s
}

// SetAttr attaches a key/value attribute and returns the span for
// chaining. Attributes set after End are dropped. A span is owned by
// the goroutine that started it; SetAttr is not safe for concurrent
// use on one span.
func (s *Span) SetAttr(key string, value any) *Span {
	if s == nil || s.ended.Load() {
		return s
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	return s
}

// End completes the span and pushes it into the ring. Multiple End
// calls record only the first.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	rec := SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Trace:   s.trace,
		Name:    s.name,
		StartNS: s.start.UnixNano(),
		DurNS:   time.Since(s.start).Nanoseconds(),
		Attrs:   s.attrs,
	}
	if s.remote != 0 {
		rec.Remote = fmt.Sprintf("%016x", s.remote)
	}
	s.t.push(rec)
}

// SortSpans orders spans by (trace ID, start sequence): spans of the
// same trace group together in start order (span IDs are assigned at
// StartSpan from one counter), with untraced spans — empty trace ID —
// first. This is the stable order GET /debug/events returns regardless
// of how the overwrite-oldest ring wrapped.
func SortSpans(spans []SpanRecord) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Trace != spans[j].Trace {
			return spans[i].Trace < spans[j].Trace
		}
		return spans[i].ID < spans[j].ID
	})
}

// traceEvent is one Chrome trace_event complete ("ph":"X") event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceEventFile is the trace_event JSON object format.
type traceEventFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTraceEvents renders the spans in the Chrome trace_event format
// (JSON object form), loadable in Perfetto and chrome://tracing. Spans
// are grouped onto tracks (tid) by their root ancestor within the
// batch, so each top-level operation renders as its own nested flame.
func WriteTraceEvents(w io.Writer, spans []SpanRecord) error {
	// Resolve each span's root ancestor. Parents normally End after
	// their children and therefore sit later in the drained ring, so
	// the parent map covers the whole batch before roots are chased.
	parent := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	rootOf := func(id uint64) uint64 {
		for {
			p, ok := parent[id]
			if !ok || p == 0 {
				return id
			}
			id = p
		}
	}
	// Assign track IDs densely in batch (drain) order — deterministic
	// given the same span batch.
	tid := make(map[uint64]int, len(spans))
	nextTID := 1
	events := make([]traceEvent, 0, len(spans))
	for _, s := range spans {
		root := rootOf(s.ID)
		id, ok := tid[root]
		if !ok {
			id = nextTID
			nextTID++
			tid[root] = id
		}
		ev := traceEvent{
			Name: s.Name,
			Ph:   "X",
			TS:   float64(s.StartNS) / 1e3,
			Dur:  float64(s.DurNS) / 1e3,
			PID:  1,
			TID:  id,
		}
		if len(s.Attrs) > 0 {
			// encoding/json sorts map keys, so args render
			// deterministically regardless of attachment order.
			ev.Args = make(map[string]any, len(s.Attrs)+1)
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Value
			}
			ev.Args["span_id"] = s.ID
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(traceEventFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// ValidateTraceEvents checks that a byte payload parses as the Chrome
// trace_event object format with well-formed complete events — the
// schema gate the obs-smoke CI target runs against dwmbench -trace
// output.
func ValidateTraceEvents(data []byte) error {
	var f struct {
		TraceEvents []struct {
			Name *string  `json:"name"`
			Ph   *string  `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			PID  *int     `json:"pid"`
			TID  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("trace_event: not valid JSON: %w", err)
	}
	if f.TraceEvents == nil {
		return fmt.Errorf("trace_event: missing traceEvents array")
	}
	for i, ev := range f.TraceEvents {
		switch {
		case ev.Name == nil || *ev.Name == "":
			return fmt.Errorf("trace_event: event %d has no name", i)
		case ev.Ph == nil || *ev.Ph == "":
			return fmt.Errorf("trace_event: event %d has no phase", i)
		case *ev.Ph == "X" && (ev.TS == nil || ev.Dur == nil):
			return fmt.Errorf("trace_event: complete event %d (%s) lacks ts/dur", i, *ev.Name)
		case ev.PID == nil || ev.TID == nil:
			return fmt.Errorf("trace_event: event %d (%s) lacks pid/tid", i, *ev.Name)
		case *ev.Dur < 0:
			return fmt.Errorf("trace_event: event %d (%s) has negative duration", i, *ev.Name)
		}
	}
	return nil
}
