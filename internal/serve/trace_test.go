package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/obs"
)

// submitTraced posts a placement request with an explicit traceparent
// header and returns the 202 body.
func submitTraced(t *testing.T, base string, req PlaceRequest, tc obs.TraceContext) JobStatus {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, base+"/v1/place", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("traceparent", tc.TraceParent())
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with traceparent: status %d", resp.StatusCode)
	}
	var js JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	return js
}

// TestTracePropagationEndToEnd is the tentpole proof: a caller-minted
// trace ID rides the traceparent header into the server, lands on the
// job (202 body and every later poll), and stamps the server-side spans
// in /debug/events — one ID from the caller through queue and anneal.
func TestTracePropagationEndToEnd(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1, EventBuffer: 4096})
	t.Cleanup(obs.DisableTracing)
	obs.DrainSpans() // discard spans from earlier tests in this process

	tc := obs.DeriveTraceContext("test/e2e-propagation")
	js := submitTraced(t, base, PlaceRequest{Trace: testTrace(t), Seed: 3, Iterations: 2000}, tc)
	if js.TraceID != tc.TraceID {
		t.Fatalf("202 trace_id = %q, want %q", js.TraceID, tc.TraceID)
	}
	done := waitDone(t, base, js.ID)
	if done.TraceID != tc.TraceID {
		t.Fatalf("final trace_id = %q, want %q", done.TraceID, tc.TraceID)
	}

	ev := getEvents(t, base)
	inTrace := map[string]bool{}
	sawRemote := false
	for _, sp := range ev.Spans {
		if sp.Trace == tc.TraceID {
			inTrace[sp.Name] = true
			if sp.Remote != "" {
				sawRemote = true
			}
		}
	}
	for _, want := range []string{"serve.job.run", "core.anneal.chain"} {
		if !inTrace[want] {
			t.Errorf("no %q span under trace %s; got %v", want, tc.TraceID, inTrace)
		}
	}
	if !sawRemote {
		t.Error("no span recorded the propagated remote parent")
	}
	// The events contract: spans come back sorted by (trace, start seq).
	for i := 1; i < len(ev.Spans); i++ {
		a, b := ev.Spans[i-1], ev.Spans[i]
		if a.Trace > b.Trace || (a.Trace == b.Trace && a.ID > b.ID) {
			t.Fatalf("spans not sorted at %d: (%q,%d) before (%q,%d)", i, a.Trace, a.ID, b.Trace, b.ID)
		}
	}
}

// Without a traceparent header the job still gets a trace ID — the
// deterministic derivation from the request identity, the same one the
// serve client injects. Identical requests share a trace.
func TestTraceDerivedWhenHeaderAbsent(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1})
	req := PlaceRequest{Trace: testTrace(t), Seed: 9, Iterations: 100}
	_, id := submit(t, base, req)
	js := waitDone(t, base, id)
	if want := RequestTrace(req).TraceID; js.TraceID != want {
		t.Fatalf("derived trace_id = %q, want %q", js.TraceID, want)
	}
}

// TestTraceSurvivesJournalReplay restarts a journaled server and checks
// a recovered job still answers polls with the original caller's trace.
func TestTraceSurvivesJournalReplay(t *testing.T) {
	dir := t.TempDir()
	_, base, stop := startJournaled(t, dir, Options{Workers: 1})
	tc := obs.DeriveTraceContext("test/replay-trace")
	js := submitTraced(t, base, PlaceRequest{Trace: testTrace(t), Seed: 4, Iterations: 500}, tc)
	waitDone(t, base, js.ID)
	stop()

	_, base2, stop2 := startJournaled(t, dir, Options{Workers: 1})
	defer stop2()
	recovered := waitDone(t, base2, js.ID)
	if recovered.TraceID != tc.TraceID {
		t.Fatalf("recovered trace_id = %q, want %q", recovered.TraceID, tc.TraceID)
	}
}

// Journals written before the Trace field existed fall back to the
// deterministic request-identity derivation at replay.
func TestRecoveredJobTraceFallback(t *testing.T) {
	req := PlaceRequest{Trace: testTrace(t), Seed: 11}
	rec := &recoveredJob{id: "job-000001", req: req} // no trace recorded
	if got, want := rec.traceContext(), RequestTrace(req); got != want {
		t.Fatalf("fallback trace = %+v, want %+v", got, want)
	}
	// A recorded trace wins.
	tc := obs.DeriveTraceContext("recorded")
	rec.trace = tc.TraceParent()
	if got := rec.traceContext(); got != tc {
		t.Fatalf("recorded trace = %+v, want %+v", got, tc)
	}
}

// TestQueueDepthSymmetry hammers submit+cancel from many goroutines and
// checks the queue-depth gauge returns exactly to its starting value:
// the increment-before-send / decrement-at-dequeue accounting can
// neither leak nor go negative, no matter how cancels interleave.
func TestQueueDepthSymmetry(t *testing.T) {
	s, base := startServer(t, Options{Workers: 2, QueueCap: 64})
	depth0 := obs.GetGauge("serve.queue.depth").Value()
	tr := testTrace(t)

	var wg sync.WaitGroup
	ids := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				code, id := submit(t, base, PlaceRequest{
					Trace: tr, Seed: int64(g*100 + i), Iterations: 3000, Restarts: 1,
				})
				if code == http.StatusAccepted {
					ids <- id
				}
			}
		}(g)
	}
	// Cancel concurrently with the submissions still in flight.
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		for id := range ids {
			req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	close(ids)
	cwg.Wait()

	// Every accepted job reaches a terminal state (cancelled jobs finish
	// as partials); then the gauge must be back where it started.
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if obs.GetGauge("serve.queue.depth").Value() == depth0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if d := obs.GetGauge("serve.queue.depth").Value(); d != depth0 {
		t.Fatalf("queue depth %d after drain, want %d", d, depth0)
	}
	// Gauge never visibly negative in the final state; the server is
	// still live (not shut down) here.
	_ = s
}

// TestTenantLabeledMetrics checks the per-tenant series the serving
// layer stamps: requests counted under (tenant, policy, outcome) and
// wall-time histograms carrying a trace-ID exemplar, in promlint-clean
// exposition.
func TestTenantLabeledMetrics(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1})
	req := PlaceRequest{Trace: testTrace(t), Seed: 21, Iterations: 200, Tenant: "acme"}
	_, id := submit(t, base, req)
	waitDone(t, base, id)

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if want := `dwm_serve_tenant_requests{tenant="acme",policy="anneal",outcome="accepted"}`; !strings.Contains(out, want) {
		t.Errorf("exposition missing %s in:\n%s", want, out)
	}
	if want := `dwm_serve_tenant_wall_ms_count{tenant="acme"}`; !strings.Contains(out, want) {
		t.Errorf("exposition missing %s", want)
	}
	if want := `# {trace_id="` + RequestTrace(req).TraceID + `"}`; !strings.Contains(out, want) {
		t.Errorf("no exemplar with the request's trace ID %s in exposition", RequestTrace(req).TraceID)
	}
	if err := obs.LintExpositionOpts(strings.NewReader(out), obs.LintOptions{MaxSeriesPerMetric: obs.DefaultMaxSeries + 1}); err != nil {
		t.Fatalf("labeled exposition fails promlint: %v", err)
	}
}

// Tenant attribution must never enter the request's identity: the same
// computation from two tenants is one cache entry, one trace, one result.
func TestTenantExcludedFromIdentity(t *testing.T) {
	tr := testTrace(t)
	a := PlaceRequest{Trace: tr, Seed: 5, Tenant: "alpha"}
	b := PlaceRequest{Trace: tr, Seed: 5, Tenant: "beta"}
	if RequestKey(a) != RequestKey(b) {
		t.Fatal("tenant changed the request identity key")
	}
	if RequestTrace(a) != RequestTrace(b) {
		t.Fatal("tenant changed the derived trace")
	}
}

// TestTenantLabel pins tenant normalization: empty is "default", and a
// tenant longer than 64 bytes is cut at the last rune boundary at or
// below 64 bytes, so a multi-byte character straddling the cut is
// dropped whole instead of leaving an invalid UTF-8 label.
func TestTenantLabel(t *testing.T) {
	a := func(n int) string { return strings.Repeat("a", n) }
	for _, c := range []struct {
		name, tenant, want string
	}{
		{"empty", "", "default"},
		{"ascii", "acme", "acme"},
		{"exactly 64 bytes", a(64), a(64)},
		{"ascii over 64 bytes", a(70), a(64)},
		{"2-byte rune straddles the cut", a(63) + "é" + "z", a(63)},
		{"4-byte rune straddles the cut", a(62) + "😀" + "z", a(62)},
		{"2-byte rune ends at the cut", a(62) + "é" + "z", a(62) + "é"},
	} {
		got := tenantLabel(c.tenant)
		if got != c.want {
			t.Errorf("%s: tenantLabel = %q, want %q", c.name, got, c.want)
		}
		if !utf8.ValidString(got) || len(got) > 64 {
			t.Errorf("%s: label %q is not valid UTF-8 of at most 64 bytes", c.name, got)
		}
	}
}
