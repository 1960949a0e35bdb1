package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitResult is one answered GET /v1/jobs/{id}?wait=.
type waitResult struct {
	code int
	js   JobStatus
	took time.Duration
}

// getWaited sends GET /v1/jobs/{id}?wait=<wait> and decodes a 200
// answer. It reports errors with t.Error so it can run off the test's
// goroutine.
func getWaited(t *testing.T, base, id, wait string) waitResult {
	t.Helper()
	start := time.Now()
	resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=" + wait)
	if err != nil {
		t.Error(err)
		return waitResult{}
	}
	defer resp.Body.Close()
	res := waitResult{code: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res.js); err != nil {
			t.Error(err)
		}
	}
	res.took = time.Since(start)
	return res
}

// watchWaits wraps s's HTTP handler so a test learns when a waited GET
// reaches the server (entered) and when its handler returns (returned).
// Each channel carries the job ID. It must run before s.Serve.
func watchWaits(s *Server) (entered, returned <-chan string) {
	in, out := make(chan string, 64), make(chan string, 64)
	inner := s.httpSrv.Handler
	s.httpSrv.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !r.URL.Query().Has("wait") {
			inner.ServeHTTP(w, r)
			return
		}
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		in <- id
		inner.ServeHTTP(w, r)
		out <- id
	})
	return in, out
}

// startWatched is startServer with watchWaits installed.
func startWatched(t *testing.T, opts Options) (s *Server, base string, entered, returned <-chan string) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	entered, returned = watchWaits(s)
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
	return s, "http://" + ln.Addr().String(), entered, returned
}

// awaitID returns once ch delivers id, skipping other IDs.
func awaitID(t *testing.T, ch <-chan string, id, what string) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		select {
		case got := <-ch:
			if got == id {
				return
			}
		case <-timeout:
			t.Fatalf("no waited GET on %s %s", id, what)
		}
	}
}

// submitBlocker occupies a one-worker pool with a job that runs until
// it is cancelled, and returns once that job is running.
func submitBlocker(t *testing.T, base string) string {
	t.Helper()
	_, id := submit(t, base, PlaceRequest{Trace: testTrace(t), Seed: 99, Iterations: 2_000_000_000})
	deadline := time.Now().Add(10 * time.Second)
	for getJob(t, base, id).Status != statusRunning {
		if time.Now().After(deadline) {
			t.Fatalf("blocker %s never started", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return id
}

// cancelJob sends DELETE /v1/jobs/{id}.
func cancelJob(t *testing.T, base, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// A wait on a queued job returns done as soon as the job's run ends,
// long before the window would have expired.
func TestWaitReturnsWhenQueuedJobFinishes(t *testing.T) {
	_, base, entered, _ := startWatched(t, Options{Workers: 1})
	blocker := submitBlocker(t, base)
	_, id := submit(t, base, PlaceRequest{Trace: testTrace(t), Seed: 1, Iterations: 20000})

	got := make(chan waitResult, 1)
	go func() { got <- getWaited(t, base, id, "1m") }()
	awaitID(t, entered, id, "reached the server")
	if st := getJob(t, base, id).Status; st != statusQueued {
		t.Fatalf("target job is %s while the blocker runs, want queued", st)
	}
	cancelJob(t, base, blocker)

	res := <-got
	if res.code != http.StatusOK || res.js.Status != statusDone {
		t.Fatalf("wait answered %d with status %q", res.code, res.js.Status)
	}
	if res.took > 30*time.Second {
		t.Errorf("wait took %v: it sat out the window instead of waking on completion", res.took)
	}
	checkPlacement(t, res.js, 48)
	// The woken waiter sees exactly what a plain GET sees.
	if plain := getJob(t, base, id); plain.Result.Cost != res.js.Result.Cost || plain.ElapsedMS != res.js.ElapsedMS {
		t.Errorf("waited snapshot %+v differs from plain GET %+v", res.js.Result, plain.Result)
	}
}

// A wait whose window expires answers with the non-terminal snapshot; a
// window above the cap is clamped, not rejected; a plain GET does not
// block.
func TestWaitWindowExpires(t *testing.T) {
	s, base := startServer(t, Options{Workers: 1})
	blocker := submitBlocker(t, base)
	defer cancelJob(t, base, blocker)

	res := getWaited(t, base, blocker, "30ms")
	if res.code != http.StatusOK || res.js.Status != statusRunning {
		t.Fatalf("expired wait answered %d with status %q, want 200 running", res.code, res.js.Status)
	}
	if res.took < 30*time.Millisecond {
		t.Errorf("wait returned after %v, before its 30ms window", res.took)
	}

	// The client gives up after 50ms, long before even the clamped
	// window; the handler then answers with the running snapshot.
	rec := httptest.NewRecorder()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+blocker+"?wait=10h", nil).WithContext(ctx)
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("?wait=10h answered %d, want 200", rec.Code)
	}

	start := time.Now()
	if st := getJob(t, base, blocker).Status; st != statusRunning {
		t.Errorf("plain GET: status %q, want running", st)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("plain GET took %v", took)
	}
}

// Jobs that are terminal when the wait arrives answer at once: a cache
// hit and a finished job replayed from the journal are born terminal,
// and a failed job is terminal too.
func TestWaitOnTerminalJobReturnsAtOnce(t *testing.T) {
	dir := t.TempDir()
	req := PlaceRequest{Trace: testTrace(t), Seed: 3, Iterations: 4000}
	bad := PlaceRequest{Trace: "dwmtrace 1\nname bad\nitems 4\n", Seed: 1}
	appendRaw(t, dir,
		journalRecord{T: recJobAccept, ID: "job-000001", Req: &req},
		journalRecord{T: recJobDone, ID: "job-000001", Result: &Result{Policy: PolicyAnneal, Placement: make([]int, 48)}},
		journalRecord{T: recJobAccept, ID: "job-000002", Req: &req},
		journalRecord{T: recJobFailed, ID: "job-000002", Err: "boom"},
		journalRecord{T: recJobAccept, ID: "job-000003", Req: &bad},
	)
	_, base, _ := startJournaled(t, dir, Options{Workers: 1})

	// The first submission runs cold; the second is an exact cache hit.
	_, cold := submit(t, base, PlaceRequest{Trace: testTrace(t), Seed: 4, Iterations: 4000})
	if js := getWaited(t, base, cold, "1m").js; js.Status != statusDone {
		t.Fatalf("cold job ended %q", js.Status)
	}
	_, hit := submit(t, base, PlaceRequest{Trace: testTrace(t), Seed: 4, Iterations: 4000})

	for _, c := range []struct {
		name, id, status string
	}{
		{"cache hit", hit, statusDone},
		{"replayed done", "job-000001", statusDone},
		{"replayed failed", "job-000002", statusFailed},
		{"failed at replay", "job-000003", statusFailed},
	} {
		res := getWaited(t, base, c.id, "1m")
		if res.code != http.StatusOK || res.js.Status != c.status {
			t.Errorf("%s: answered %d, status %q", c.name, res.code, res.js.Status)
		}
		if res.took > 10*time.Second {
			t.Errorf("%s: wait took %v on a terminal job", c.name, res.took)
		}
	}
	if res := getWaited(t, base, hit, "1m"); !res.js.CacheHit {
		t.Errorf("job %s is not a cache hit", hit)
	}
}

// A client that gives up mid-wait frees the handler at once: the wait
// ends with the request's context, not with the window or the job.
func TestWaitClientDisconnectFreesHandler(t *testing.T) {
	_, base, entered, returned := startWatched(t, Options{Workers: 1})
	blocker := submitBlocker(t, base)
	defer cancelJob(t, base, blocker)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+blocker+"?wait=1m", nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	awaitID(t, entered, blocker, "reached the server")
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("client call ended with %v, want context.Canceled", err)
	}
	awaitID(t, returned, blocker, "returned after its client disconnected")
}

// Shutdown with waiters parked on queued jobs still drains and returns,
// and every waiter is answered with its job's terminal status.
func TestShutdownAnswersParkedWaiters(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	entered, _ := watchWaits(s)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	blocker := submitBlocker(t, base)
	var ids []string
	for i := 0; i < 3; i++ {
		_, id := submit(t, base, PlaceRequest{Trace: testTrace(t), Seed: int64(i + 1), Iterations: 2000})
		ids = append(ids, id)
	}
	results := make([]waitResult, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = getWaited(t, base, id, "1m")
		}()
	}
	for range ids {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatal("waiters never reached the server")
		}
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readiness never flipped after Shutdown began")
		}
		time.Sleep(time.Millisecond)
	}
	// The drain is now waiting on the blocker; ending it lets the queued
	// jobs run and the drain complete.
	cancelJob(t, base, blocker)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()
	for i, res := range results {
		if res.code != http.StatusOK || res.js.Status != statusDone || res.js.Result == nil || res.js.Result.Partial {
			t.Errorf("waiter on %s: answered %d with status %q", ids[i], res.code, res.js.Status)
		}
	}
}
