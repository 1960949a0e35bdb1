package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// withTracer installs a fresh process-wide tracer for the test and
// restores the disabled state afterwards.
func withTracer(t *testing.T, capacity int) {
	t.Helper()
	EnableTracing(capacity)
	t.Cleanup(DisableTracing)
}

func TestSpanDisabledIsNoOp(t *testing.T) {
	DisableTracing()
	ctx, sp := StartSpan(context.Background(), "noop")
	if sp != nil {
		t.Fatal("StartSpan returned a live span while tracing is disabled")
	}
	if ctx != context.Background() {
		t.Fatal("StartSpan changed the context while disabled")
	}
	sp.SetAttr("k", 1) // must not panic on nil receiver
	sp.End()
	if recs, dropped := DrainSpans(); recs != nil || dropped != 0 {
		t.Fatalf("DrainSpans while disabled = %v, %d", recs, dropped)
	}
}

func TestSpanParentChild(t *testing.T) {
	withTracer(t, 64)
	ctx, root := StartSpan(context.Background(), "root")
	_, child := StartSpan(ctx, "child")
	child.SetAttr("cost", int64(42)).SetAttr("policy", "anneal")
	child.End()
	root.End()

	recs, dropped := DrainSpans()
	if dropped != 0 {
		t.Fatalf("dropped %d spans from a 64-slot ring", dropped)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d spans, want 2", len(recs))
	}
	// Children end first, so drain order is child, root.
	if recs[0].Name != "child" || recs[1].Name != "root" {
		t.Fatalf("drain order = %q, %q", recs[0].Name, recs[1].Name)
	}
	if recs[0].Parent != recs[1].ID {
		t.Fatalf("child parent %d != root id %d", recs[0].Parent, recs[1].ID)
	}
	if recs[1].Parent != 0 {
		t.Fatalf("root has parent %d", recs[1].Parent)
	}
	if len(recs[0].Attrs) != 2 || recs[0].Attrs[0].Key != "cost" || recs[0].Attrs[1].Key != "policy" {
		t.Fatalf("child attrs = %+v", recs[0].Attrs)
	}
	if recs[0].DurNS < 0 || recs[1].DurNS < recs[0].DurNS {
		t.Fatalf("durations inconsistent: child %d, root %d", recs[0].DurNS, recs[1].DurNS)
	}
}

func TestSpanDoubleEndRecordsOnce(t *testing.T) {
	withTracer(t, 64)
	_, sp := StartSpan(context.Background(), "once")
	sp.End()
	sp.End()
	recs, _ := DrainSpans()
	if len(recs) != 1 {
		t.Fatalf("double End recorded %d spans", len(recs))
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 20; i++ {
		tr.push(SpanRecord{ID: uint64(i + 1), Name: "s"})
	}
	recs, dropped := tr.Drain()
	if len(recs) != 16 {
		t.Fatalf("ring held %d records, want 16", len(recs))
	}
	if dropped != 4 {
		t.Fatalf("dropped = %d, want 4", dropped)
	}
	if recs[0].ID != 5 || recs[15].ID != 20 {
		t.Fatalf("drain not oldest-first: first=%d last=%d", recs[0].ID, recs[15].ID)
	}
	// A second drain is empty.
	if recs, dropped := tr.Drain(); len(recs) != 0 || dropped != 0 {
		t.Fatalf("second drain = %d recs, %d dropped", len(recs), dropped)
	}
}

func TestSpanConcurrent(t *testing.T) {
	withTracer(t, 1<<12)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ctx, sp := StartSpan(context.Background(), "outer")
				_, inner := StartSpan(ctx, "inner")
				inner.SetAttr("i", i)
				inner.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	recs, dropped := DrainSpans()
	if dropped != 0 || len(recs) != 1600 {
		t.Fatalf("got %d spans (%d dropped), want 1600", len(recs), dropped)
	}
	ids := map[uint64]bool{}
	for _, r := range recs {
		if ids[r.ID] {
			t.Fatalf("duplicate span ID %d", r.ID)
		}
		ids[r.ID] = true
	}
}

func TestWriteTraceEventsValidates(t *testing.T) {
	withTracer(t, 64)
	ctx, root := StartSpan(context.Background(), "experiment")
	root.SetAttr("id", "E1")
	_, child := StartSpan(ctx, "anneal.chain")
	child.SetAttr("best_cost", int64(123))
	child.End()
	root.End()
	_, lone := StartSpan(context.Background(), "sim.run")
	lone.End()

	recs, _ := DrainSpans()
	var b bytes.Buffer
	if err := WriteTraceEvents(&b, recs); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceEvents(b.Bytes()); err != nil {
		t.Fatalf("self-produced trace fails validation: %v", err)
	}
	// Parent and child share a track; the unrelated span gets its own.
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	tids := map[string]int{}
	for _, ev := range f.TraceEvents {
		tids[ev.Name] = ev.TID
	}
	if tids["experiment"] != tids["anneal.chain"] {
		t.Fatalf("parent/child on different tracks: %v", tids)
	}
	if tids["sim.run"] == tids["experiment"] {
		t.Fatalf("unrelated spans share a track: %v", tids)
	}
}

func TestValidateTraceEventsRejectsMalformed(t *testing.T) {
	for name, payload := range map[string]string{
		"not json":     "{",
		"no array":     `{"displayTimeUnit":"ms"}`,
		"nameless":     `{"traceEvents":[{"ph":"X","ts":1,"dur":1,"pid":1,"tid":1}]}`,
		"no phase":     `{"traceEvents":[{"name":"a","ts":1,"dur":1,"pid":1,"tid":1}]}`,
		"no ts":        `{"traceEvents":[{"name":"a","ph":"X","pid":1,"tid":1}]}`,
		"no pid":       `{"traceEvents":[{"name":"a","ph":"X","ts":1,"dur":1}]}`,
		"negative dur": `{"traceEvents":[{"name":"a","ph":"X","ts":1,"dur":-5,"pid":1,"tid":1}]}`,
	} {
		if err := ValidateTraceEvents([]byte(payload)); err == nil {
			t.Errorf("%s: validator accepted %s", name, payload)
		}
	}
	ok := `{"traceEvents":[{"name":"a","ph":"X","ts":1.5,"dur":0,"pid":1,"tid":1}]}`
	if err := ValidateTraceEvents([]byte(ok)); err != nil {
		t.Errorf("validator rejected well-formed payload: %v", err)
	}
}
