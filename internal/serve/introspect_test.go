package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// mustTrace decodes the shared test workload.
func mustTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := trace.Decode(strings.NewReader(testTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// getEvents drains GET /debug/events.
func getEvents(t *testing.T, base string) eventsResponse {
	t.Helper()
	resp, err := http.Get(base + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/events: status %d", resp.StatusCode)
	}
	var ev eventsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestDebugEvents(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1, EventBuffer: 4096})
	t.Cleanup(obs.DisableTracing)
	obs.DrainSpans() // discard spans from earlier tests in this process

	_, id := submit(t, base, PlaceRequest{Trace: testTrace(t), Seed: 3, Iterations: 5000})
	waitDone(t, base, id)

	ev := getEvents(t, base)
	if !ev.Enabled {
		t.Fatal("events endpoint reports tracing disabled")
	}
	names := make(map[string]int)
	for _, sp := range ev.Spans {
		names[sp.Name]++
		if sp.DurNS < 0 {
			t.Errorf("span %s has negative duration %d", sp.Name, sp.DurNS)
		}
	}
	for _, want := range []string{"serve.job.run", "core.anneal.chain", "trace.decode"} {
		if names[want] == 0 {
			t.Errorf("no %q span in /debug/events drain; got %v", want, names)
		}
	}

	// Draining consumes: an immediate second drain is empty.
	if again := getEvents(t, base); len(again.Spans) != 0 {
		t.Errorf("second drain returned %d spans, want 0", len(again.Spans))
	}
}

func TestDebugEventsDisabled(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1}) // EventBuffer unset
	if obs.TracingEnabled() {
		t.Skip("tracing enabled elsewhere in the process")
	}
	ev := getEvents(t, base)
	if ev.Enabled {
		t.Error("tracing reported enabled without EventBuffer")
	}
	if len(ev.Spans) != 0 {
		t.Errorf("disabled tracer returned %d spans", len(ev.Spans))
	}
}

func TestPprofEndpoints(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

func TestJobProgress(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1})
	// Enough iterations for several checkpoint-cadence reports
	// (CheckpointEvery defaults to 4096), two restart chains.
	const iters = 50_000
	_, id := submit(t, base, PlaceRequest{Trace: testTrace(t), Seed: 11, Iterations: iters, Restarts: 2})
	js := waitDone(t, base, id)
	if js.Status != statusDone {
		t.Fatalf("job failed: %+v", js)
	}
	p := js.Progress
	if p == nil {
		t.Fatal("finished annealing job has no progress block")
	}
	if p.Chains != 2 {
		t.Errorf("Chains = %d, want 2", p.Chains)
	}
	// The final report of each chain is cumulative, so the sum is exactly
	// the total proposal budget.
	if p.Proposals != 2*iters {
		t.Errorf("Proposals = %d, want %d", p.Proposals, 2*iters)
	}
	if p.Accepted < 0 || p.Accepted > p.Proposals {
		t.Errorf("Accepted = %d outside [0, %d]", p.Accepted, p.Proposals)
	}
	if js.Result == nil || p.BestCost != js.Result.Cost {
		t.Errorf("BestCost = %d, result cost = %+v; want equal", p.BestCost, js.Result)
	}
	if p.CheckpointAgeMS < 0 {
		t.Errorf("CheckpointAgeMS = %d, want >= 0 (start placement is always checkpointed)", p.CheckpointAgeMS)
	}

	// Progress observation is inert: the same request without restarts
	// must reproduce the single-chain placement byte-for-byte. (The
	// determinism smoke proves the tracing side process-wide; this pins
	// the progress hook specifically.)
	_, id2 := submit(t, base, PlaceRequest{Trace: testTrace(t), Seed: 11, Iterations: iters, Restarts: 2})
	js2 := waitDone(t, base, id2)
	if js2.Result == nil || js.Result == nil {
		t.Fatal("missing results")
	}
	if js2.Result.Cost != js.Result.Cost {
		t.Errorf("repeat submission cost %d != %d", js2.Result.Cost, js.Result.Cost)
	}
	for i := range js.Result.Placement {
		if js.Result.Placement[i] != js2.Result.Placement[i] {
			t.Fatalf("placement diverged at item %d", i)
		}
	}
}

func TestJobProgressQueuedJobHasNone(t *testing.T) {
	j := &job{id: "job-000001", info: traceInfo(mustTrace(t)), status: statusQueued}
	st := j.snapshot(time.Now())
	if st.Progress != nil {
		t.Errorf("queued job has progress block: %+v", st.Progress)
	}
}
