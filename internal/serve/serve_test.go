package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/workload"
)

// testTrace renders a small deterministic workload in the dwmtrace text
// format for embedding in requests.
func testTrace(t *testing.T) string {
	t.Helper()
	tr := workload.Zipf(48, 4000, 1.2, 7)
	var b bytes.Buffer
	if err := trace.Encode(&b, tr); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// startServer runs a Server on a loopback listener and returns its base
// URL. Cleanup drains the pool and closes the listener.
func startServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return s, "http://" + ln.Addr().String()
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// submit posts a placement request and returns (status code, job ID).
func submit(t *testing.T, base string, req PlaceRequest) (int, string) {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/place", req)
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, ""
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatalf("bad 202 body %q: %v", body, err)
	}
	if js.ID == "" {
		t.Fatalf("202 with empty job id: %s", body)
	}
	return resp.StatusCode, js.ID
}

func getJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var js JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	return js
}

// waitDone polls until the job leaves the queue/running states.
func waitDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		js := getJob(t, base, id)
		if js.Status == statusDone || js.Status == statusFailed {
			return js
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// checkPlacement validates the result invariants every finished job
// must satisfy: a valid compact placement whose cost does not exceed
// the program-order baseline.
func checkPlacement(t *testing.T, js JobStatus, items int) {
	t.Helper()
	if js.Result == nil {
		t.Fatalf("job %s finished without result (error %q)", js.ID, js.Error)
	}
	r := js.Result
	if len(r.Placement) != items {
		t.Fatalf("placement covers %d items, want %d", len(r.Placement), items)
	}
	seen := make([]bool, items)
	for item, slot := range r.Placement {
		if slot < 0 || slot >= items || seen[slot] {
			t.Fatalf("placement invalid at item %d -> slot %d", item, slot)
		}
		seen[slot] = true
	}
	if r.Cost > r.BaselineCost {
		t.Errorf("cost %d worse than program-order baseline %d", r.Cost, r.BaselineCost)
	}
}

func TestPlaceEndToEnd(t *testing.T) {
	_, base := startServer(t, Options{Workers: 2})
	code, id := submit(t, base, PlaceRequest{Trace: testTrace(t), Seed: 1, Iterations: 20000})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	js := waitDone(t, base, id)
	if js.Status != statusDone {
		t.Fatalf("status %s, error %q", js.Status, js.Error)
	}
	if js.Result.Partial {
		t.Error("uninterrupted job marked partial")
	}
	checkPlacement(t, js, 48)
	if js.Trace.Items != 48 || js.Trace.Accesses != 4000 {
		t.Errorf("trace info %+v", js.Trace)
	}
}

// The headline service guarantee: identical submissions produce
// byte-identical placements no matter which worker runs them.
func TestDeterministicAcrossWorkers(t *testing.T) {
	_, base := startServer(t, Options{Workers: 4, QueueCap: 16})
	req := PlaceRequest{Trace: testTrace(t), Seed: 42, Iterations: 20000, Restarts: 3}
	var ids []string
	for i := 0; i < 4; i++ {
		code, id := submit(t, base, req)
		if code != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", i, code)
		}
		ids = append(ids, id)
	}
	var first *Result
	for i, id := range ids {
		js := waitDone(t, base, id)
		if js.Status != statusDone {
			t.Fatalf("job %s: %s (%s)", id, js.Status, js.Error)
		}
		checkPlacement(t, js, 48)
		if i == 0 {
			first = js.Result
			continue
		}
		if js.Result.Cost != first.Cost || fmt.Sprint(js.Result.Placement) != fmt.Sprint(first.Placement) {
			t.Errorf("submission %d diverged: cost %d vs %d", i, js.Result.Cost, first.Cost)
		}
	}
}

// Saturating the queue must shed load with 429 + Retry-After and never
// drop a job that was accepted.
func TestBackpressureNeverDropsAccepted(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1, QueueCap: 1})
	slow := PlaceRequest{Trace: testTrace(t), Seed: 1, Iterations: 3_000_000}
	var accepted []string
	rejected := 0
	for i := 0; i < 10; i++ {
		raw, err := json.Marshal(slow)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/place", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		body := new(bytes.Buffer)
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			var js JobStatus
			if err := json.Unmarshal(body.Bytes(), &js); err != nil {
				t.Fatal(err)
			}
			accepted = append(accepted, js.ID)
		case http.StatusTooManyRequests:
			rejected++
			// Retry-After is retryAfterSeconds plus deterministic jitter
			// in [0, retryAfterSeconds] derived from the request's identity
			// hash — fixed request, fixed value (see
			// TestRetryAfterJitterDeterministic).
			want := fmt.Sprintf("%d", retryAfterSeconds+int(requestDigest(slow)%(retryAfterSeconds+1)))
			if ra := resp.Header.Get("Retry-After"); ra != want {
				t.Errorf("Retry-After = %q, want %q", ra, want)
			}
		default:
			t.Fatalf("submission %d: unexpected status %d: %s", i, resp.StatusCode, body)
		}
	}
	if rejected == 0 {
		t.Fatal("queue-saturating burst produced no 429s")
	}
	if len(accepted) == 0 {
		t.Fatal("burst produced no accepted jobs")
	}
	for _, id := range accepted {
		js := waitDone(t, base, id)
		if js.Status != statusDone {
			t.Errorf("accepted job %s dropped: %s (%s)", id, js.Status, js.Error)
			continue
		}
		checkPlacement(t, js, 48)
	}
}

// A job cut short by its deadline completes with a valid partial
// placement no worse than the program-order baseline.
func TestDeadlineReturnsPartial(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1})
	code, id := submit(t, base, PlaceRequest{
		Trace: testTrace(t), Seed: 1, Iterations: 2_000_000_000, DeadlineMS: 60,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	js := waitDone(t, base, id)
	if js.Status != statusDone {
		t.Fatalf("status %s, error %q", js.Status, js.Error)
	}
	if !js.Result.Partial {
		t.Error("deadline-cut job not marked partial")
	}
	checkPlacement(t, js, 48)
}

// DELETE cancels a running job, which still yields a valid partial.
func TestCancelRunningJob(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1})
	_, id := submit(t, base, PlaceRequest{Trace: testTrace(t), Seed: 1, Iterations: 2_000_000_000})
	// Wait until it is actually running so the cancel exercises the
	// mid-flight path; a still-queued cancel is also legal but weaker.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && getJob(t, base, id).Status != statusRunning {
		time.Sleep(2 * time.Millisecond)
	}
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	js := waitDone(t, base, id)
	if js.Status != statusDone {
		t.Fatalf("status %s, error %q", js.Status, js.Error)
	}
	if !js.Result.Partial {
		t.Error("cancelled job not marked partial")
	}
	checkPlacement(t, js, 48)
}

// Resubmitting with resume continues from the earlier job's checkpoint:
// the resumed run can only improve on it.
func TestResumeFromCheckpoint(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1})
	tr := testTrace(t)
	_, id := submit(t, base, PlaceRequest{Trace: tr, Seed: 1, Iterations: 2_000_000_000, DeadlineMS: 60})
	first := waitDone(t, base, id)
	if first.Status != statusDone || !first.Result.Partial {
		t.Fatalf("setup job not partial: %+v", first)
	}
	_, id2 := submit(t, base, PlaceRequest{Trace: tr, Seed: 1, Iterations: 20000, Resume: id})
	second := waitDone(t, base, id2)
	if second.Status != statusDone {
		t.Fatalf("resumed job failed: %s", second.Error)
	}
	checkPlacement(t, second, 48)
	if second.Result.Cost > first.Result.Cost {
		t.Errorf("resumed cost %d worse than checkpoint %d", second.Result.Cost, first.Result.Cost)
	}
}

// When the drain budget expires with a job still running, Shutdown
// reports the blown budget but the job is cut short into a valid
// partial rather than abandoned.
func TestShutdownBudgetCutsRunningJobToPartial(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	_, id := submit(t, base, PlaceRequest{Trace: testTrace(t), Seed: 1, Iterations: 2_000_000_000})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && getJob(t, base, id).Status != statusRunning {
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	j, ok := s.lookup(id)
	if !ok {
		t.Fatal("job vanished")
	}
	js := j.snapshot(time.Now())
	if js.Status != statusDone || js.Result == nil {
		t.Fatalf("cut-short job: %+v", js)
	}
	if !js.Result.Partial {
		t.Error("budget-cut job not marked partial")
	}
	checkPlacement(t, js, 48)
}

func TestRequestValidation(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		req  PlaceRequest
		want int
	}{
		{"missing trace", PlaceRequest{}, http.StatusBadRequest},
		{"garbage trace", PlaceRequest{Trace: "not a trace"}, http.StatusBadRequest},
		{"unknown policy", PlaceRequest{Trace: testTrace(t), Policy: "bogus"}, http.StatusBadRequest},
		{"unknown resume", PlaceRequest{Trace: testTrace(t), Resume: "job-999999"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, base+"/v1/place", tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
	}
	// Invalid JSON body.
	resp, err := http.Post(base+"/v1/place", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated JSON: status %d", resp.StatusCode)
	}
	// Unknown job ID.
	jr, err := http.Get(base + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if jr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", jr.StatusCode)
	}
	// The wait parameter of GET /v1/jobs/{id}.
	_, id := submit(t, base, PlaceRequest{Trace: testTrace(t), Seed: 1, Iterations: 1000})
	for _, c := range []struct {
		id, wait string
		want     int
	}{
		{id, "abc", http.StatusBadRequest},
		{id, "-1s", http.StatusBadRequest},
		{id, "", http.StatusBadRequest},
		{"job-999999", "1s", http.StatusNotFound},
		{id, "0s", http.StatusOK},
	} {
		if res := getWaited(t, base, c.id, c.wait); res.code != c.want {
			t.Errorf("GET %s?wait=%s: status %d, want %d", c.id, c.wait, res.code, c.want)
		}
	}
}

// Non-anneal policies run to completion through the same API.
func TestConstructivePolicy(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1})
	_, id := submit(t, base, PlaceRequest{Trace: testTrace(t), Policy: "organpipe", Seed: 1})
	js := waitDone(t, base, id)
	if js.Status != statusDone {
		t.Fatalf("status %s, error %q", js.Status, js.Error)
	}
	if js.Result.Policy != "organpipe" || js.Result.Partial {
		t.Errorf("result %+v", js.Result)
	}
	checkPlacement(t, js, 48)
}

func TestHealthReadyMetrics(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
	// Metrics render the obs registry in the Prometheus text format;
	// submit one job so the serve instruments are present.
	_, id := submit(t, base, PlaceRequest{Trace: testTrace(t), Seed: 1, Iterations: 1000})
	waitDone(t, base, id)
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	out := b.String()
	for _, want := range []string{
		"# TYPE dwm_serve_jobs_accepted counter",
		"dwm_serve_jobs_done",
		"dwm_core_anneal_iterations",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
