package obs

import (
	"context"
	"fmt"
	"testing"
)

func TestDeriveTraceContextDeterministic(t *testing.T) {
	a := DeriveTraceContext("place/abc123")
	b := DeriveTraceContext("place/abc123")
	if a != b {
		t.Fatalf("same key derived %+v and %+v", a, b)
	}
	if !a.Valid() {
		t.Fatalf("derived context invalid: %+v", a)
	}
	if len(a.TraceID) != 32 {
		t.Fatalf("trace ID %q is not 32 hex digits", a.TraceID)
	}
	if c := DeriveTraceContext("place/abc124"); c.TraceID == a.TraceID {
		t.Fatalf("distinct keys share trace ID %s", a.TraceID)
	}
}

func TestTraceParentRoundTrip(t *testing.T) {
	tc := DeriveTraceContext("roundtrip")
	wire := tc.TraceParent()
	got, ok := ParseTraceParent(wire)
	if !ok {
		t.Fatalf("ParseTraceParent rejected own output %q", wire)
	}
	if got != tc {
		t.Fatalf("round trip %q: got %+v, want %+v", wire, got, tc)
	}
}

func TestParseTraceParent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := []struct {
		in string
		ok bool
	}{
		{valid, true},
		// Future versions and unknown trailing fields are accepted.
		{"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", true},
		// Uppercase hex is normalized.
		{"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01", true},
		// Reserved version.
		{"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
		// All-zero trace / parent IDs.
		{"00-00000000000000000000000000000000-00f067aa0ba902b7-01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", false},
		// Wrong field widths, missing fields, junk.
		{"00-4bf92f3577b34da6-00f067aa0ba902b7-01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa-01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", false},
		{"", false},
		{"not a header", false},
		{"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01", false},
	}
	for _, c := range cases {
		tc, ok := ParseTraceParent(c.in)
		if ok != c.ok {
			t.Errorf("ParseTraceParent(%q) ok=%v, want %v", c.in, ok, c.ok)
		}
		if ok && !tc.Valid() {
			t.Errorf("ParseTraceParent(%q) returned invalid context %+v", c.in, tc)
		}
	}
}

func TestContextWithTrace(t *testing.T) {
	base := context.Background()
	if got := ContextWithTrace(base, TraceContext{}); got != base {
		t.Fatal("invalid TraceContext changed the context")
	}
	if _, ok := TraceFromContext(base); ok {
		t.Fatal("empty context claims a trace")
	}
	tc := DeriveTraceContext("ctx")
	ctx := ContextWithTrace(base, tc)
	got, ok := TraceFromContext(ctx)
	if !ok || got != tc {
		t.Fatalf("TraceFromContext = %+v, %v; want %+v", got, ok, tc)
	}
}

// TestStartSpanStampsTrace covers the propagation contract: a span
// started under a TraceContext records the trace ID, the first span of
// the trace in this process records the remote parent, and descendants
// inherit the trace with local parent linking.
func TestStartSpanStampsTrace(t *testing.T) {
	withTracer(t, 64)
	tc := DeriveTraceContext("propagated")
	ctx := ContextWithTrace(context.Background(), tc)

	ctx, root := StartSpan(ctx, "server.root")
	_, child := StartSpan(ctx, "server.child")
	child.End()
	root.End()

	recs, _ := DrainSpans()
	if len(recs) != 2 {
		t.Fatalf("got %d spans, want 2", len(recs))
	}
	childRec, rootRec := recs[0], recs[1]
	if rootRec.Trace != tc.TraceID || childRec.Trace != tc.TraceID {
		t.Fatalf("trace IDs %q / %q, want %q", rootRec.Trace, childRec.Trace, tc.TraceID)
	}
	if want := fmt.Sprintf("%016x", tc.SpanID); rootRec.Remote != want {
		t.Fatalf("root remote = %q, want %q", rootRec.Remote, want)
	}
	if childRec.Remote != "" {
		t.Fatalf("child carries remote parent %q; only trace roots should", childRec.Remote)
	}
	if childRec.Parent != rootRec.ID {
		t.Fatalf("child parent %d != root id %d", childRec.Parent, rootRec.ID)
	}
}

// TestSpanTraceContextAdvances checks that the context returned by
// StartSpan names the new span as the parent of outbound calls.
func TestSpanTraceContextAdvances(t *testing.T) {
	withTracer(t, 64)
	tc := DeriveTraceContext("outbound")
	ctx := ContextWithTrace(context.Background(), tc)
	ctx, sp := StartSpan(ctx, "op")
	defer sp.End()

	adv, ok := TraceFromContext(ctx)
	if !ok || adv.TraceID != tc.TraceID {
		t.Fatalf("advanced context trace = %+v, %v", adv, ok)
	}
	if adv.SpanID == tc.SpanID {
		t.Fatal("context SpanID did not advance to the new span")
	}
	if adv.TraceID != sp.trace || adv.SpanID != sp.id {
		t.Fatalf("context %+v does not name span (%s, %016x)", adv, sp.trace, sp.id)
	}
}

func TestSortSpans(t *testing.T) {
	spans := []SpanRecord{
		{ID: 9, Trace: "bb"},
		{ID: 2, Trace: "aa"},
		{ID: 7, Trace: "aa"},
		{ID: 5}, // untraced sorts first
		{ID: 1, Trace: "bb"},
	}
	SortSpans(spans)
	want := []struct {
		trace string
		id    uint64
	}{{"", 5}, {"aa", 2}, {"aa", 7}, {"bb", 1}, {"bb", 9}}
	for i, w := range want {
		if spans[i].Trace != w.trace || spans[i].ID != w.id {
			t.Fatalf("spans[%d] = (%q, %d), want (%q, %d)", i, spans[i].Trace, spans[i].ID, w.trace, w.id)
		}
	}
}
