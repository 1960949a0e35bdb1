package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// fakeSleep records every requested delay and returns instantly.
type fakeSleep struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (f *fakeSleep) sleep(ctx context.Context, d time.Duration) error {
	f.mu.Lock()
	f.delays = append(f.delays, d)
	f.mu.Unlock()
	return ctx.Err()
}

func (f *fakeSleep) all() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.delays...)
}

// scriptServer answers each request from a scripted list of responses;
// past the script it always succeeds with the given job status.
type scriptServer struct {
	mu     sync.Mutex
	script []func(w http.ResponseWriter)
	calls  int
	final  serve.JobStatus
}

func (s *scriptServer) handler(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	i := s.calls
	s.calls++
	s.mu.Unlock()
	if i < len(s.script) {
		s.script[i](w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.final)
}

func (s *scriptServer) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func status(code int, body string) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		w.WriteHeader(code)
		fmt.Fprint(w, body)
	}
}

func newTestClient(t *testing.T, s *scriptServer, opts Options) (*Client, *fakeSleep) {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(s.handler))
	t.Cleanup(srv.Close)
	fs := &fakeSleep{}
	opts.BaseURL = srv.URL
	opts.Sleep = fs.sleep
	return New(opts), fs
}

func TestSubmitRetriesOn5xx(t *testing.T) {
	s := &scriptServer{
		script: []func(http.ResponseWriter){
			status(http.StatusInternalServerError, `{"error":"blip"}`),
			status(http.StatusBadGateway, `{"error":"blip"}`),
		},
		final: serve.JobStatus{ID: "job-000001", Status: "queued"},
	}
	c, fs := newTestClient(t, s, Options{})
	js, err := c.Submit(context.Background(), serve.PlaceRequest{Trace: "t", Seed: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if js.ID != "job-000001" {
		t.Fatalf("job = %q", js.ID)
	}
	if s.count() != 3 {
		t.Fatalf("server saw %d calls, want 3", s.count())
	}
	if len(fs.all()) != 2 {
		t.Fatalf("slept %d times, want 2", len(fs.all()))
	}
}

func TestSubmitHonorsRetryAfter(t *testing.T) {
	s := &scriptServer{
		script: []func(http.ResponseWriter){
			func(w http.ResponseWriter) {
				w.Header().Set("Retry-After", "3")
				w.WriteHeader(http.StatusTooManyRequests)
				fmt.Fprint(w, `{"error":"queue full"}`)
			},
		},
		final: serve.JobStatus{ID: "job-000002", Status: "queued"},
	}
	c, fs := newTestClient(t, s, Options{})
	if _, err := c.Submit(context.Background(), serve.PlaceRequest{Trace: "t"}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	delays := fs.all()
	if len(delays) != 1 || delays[0] != 3*time.Second {
		t.Fatalf("delays = %v, want exactly the server's 3s hint", delays)
	}
}

func TestPermanent4xxNotRetried(t *testing.T) {
	s := &scriptServer{
		script: []func(http.ResponseWriter){
			status(http.StatusBadRequest, `{"error":"missing trace"}`),
		},
	}
	c, fs := newTestClient(t, s, Options{})
	_, err := c.Submit(context.Background(), serve.PlaceRequest{})
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400 APIError", err)
	}
	if !strings.Contains(apiErr.Message, "missing trace") {
		t.Fatalf("message = %q", apiErr.Message)
	}
	if s.count() != 1 || len(fs.all()) != 0 {
		t.Fatalf("400 was retried: %d calls, %d sleeps", s.count(), len(fs.all()))
	}
}

func TestAttemptsExhausted(t *testing.T) {
	down := func(w http.ResponseWriter) { w.WriteHeader(http.StatusServiceUnavailable) }
	s := &scriptServer{script: []func(http.ResponseWriter){down, down, down, down, down, down}}
	c, _ := newTestClient(t, s, Options{MaxAttempts: 3})
	_, err := c.Submit(context.Background(), serve.PlaceRequest{Trace: "t"})
	if err == nil || !strings.Contains(err.Error(), "3 attempts exhausted") {
		t.Fatalf("err = %v", err)
	}
	if s.count() != 3 {
		t.Fatalf("server saw %d calls, want 3", s.count())
	}
}

func TestConnectionErrorRetried(t *testing.T) {
	// A server that is down for the first attempts: point the client at a
	// listener that was closed, then switch to a live one. Simplest
	// in-process stand-in: an httptest server whose handler hijacks and
	// slams the connection.
	drops := 2
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		drop := drops > 0
		if drop {
			drops--
		}
		mu.Unlock()
		if drop {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijack support")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close() // connection reset mid-request
			return
		}
		json.NewEncoder(w).Encode(serve.JobStatus{ID: "job-000003", Status: "queued"})
	}))
	t.Cleanup(srv.Close)
	fs := &fakeSleep{}
	c := New(Options{BaseURL: srv.URL, Sleep: fs.sleep})
	js, err := c.Submit(context.Background(), serve.PlaceRequest{Trace: "t"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if js.ID != "job-000003" {
		t.Fatalf("job = %q", js.ID)
	}
	if len(fs.all()) != 2 {
		t.Fatalf("slept %d times, want 2", len(fs.all()))
	}
}

// TestBackoffScheduleDeterministic: the jittered backoff is a pure
// function of (key, attempt) — same request, same schedule, every run —
// and stays within [ceil/2, ceil] of the exponential envelope.
func TestBackoffScheduleDeterministic(t *testing.T) {
	c := New(Options{BaseURL: "http://unused", BaseBackoff: 100 * time.Millisecond, MaxBackoff: 2 * time.Second})
	var first []time.Duration
	for attempt := 1; attempt <= 6; attempt++ {
		d := c.backoffFor("key-a/submit", attempt)
		first = append(first, d)
		ceil := 100 * time.Millisecond << (attempt - 1)
		if ceil > 2*time.Second {
			ceil = 2 * time.Second
		}
		if d < ceil/2 || d > ceil {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, d, ceil/2, ceil)
		}
	}
	for attempt := 1; attempt <= 6; attempt++ {
		if d := c.backoffFor("key-a/submit", attempt); d != first[attempt-1] {
			t.Fatalf("attempt %d: schedule not deterministic: %v vs %v", attempt, d, first[attempt-1])
		}
	}
	diff := false
	for attempt := 1; attempt <= 6; attempt++ {
		if c.backoffFor("key-b/submit", attempt) != first[attempt-1] {
			diff = true
		}
	}
	if !diff {
		t.Error("distinct keys produced identical schedules; jitter is vacuous")
	}
}

// TestSubmitStampsIdempotencyKey: Submit fills ClientKey with the
// request's deterministic identity unless disabled or caller-supplied.
func TestSubmitStampsIdempotencyKey(t *testing.T) {
	var got serve.PlaceRequest
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = serve.PlaceRequest{} // omitempty fields would otherwise go stale
		json.NewDecoder(r.Body).Decode(&got)
		json.NewEncoder(w).Encode(serve.JobStatus{ID: "job-000001", Status: "queued"})
	}))
	t.Cleanup(srv.Close)

	req := serve.PlaceRequest{Trace: "t", Seed: 42}
	c := New(Options{BaseURL: srv.URL})
	if _, err := c.Submit(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got.ClientKey != serve.RequestKey(req) {
		t.Fatalf("ClientKey = %q, want RequestKey %q", got.ClientKey, serve.RequestKey(req))
	}

	req.ClientKey = "caller-chosen"
	if _, err := c.Submit(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got.ClientKey != "caller-chosen" {
		t.Fatalf("caller-supplied key overwritten: %q", got.ClientKey)
	}

	c2 := New(Options{BaseURL: srv.URL, DisableIdempotency: true})
	if _, err := c2.Submit(context.Background(), serve.PlaceRequest{Trace: "t", Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if got.ClientKey != "" {
		t.Fatalf("DisableIdempotency still stamped %q", got.ClientKey)
	}
}

// TestRunAgainstRealServer drives Submit+Wait end to end against an
// in-process dwmserved surface, with the idempotency key exercised by a
// duplicate Run converging on the same job.
func TestRunAgainstRealServer(t *testing.T) {
	s, err := serve.New(serve.Options{Workers: 1, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		srv.Close()
	})

	var trace strings.Builder
	trace.WriteString("dwmtrace 1\nname client-e2e\nitems 8\n")
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&trace, "R %d\n", (i*3)%8)
	}
	req := serve.PlaceRequest{Trace: trace.String(), Seed: 1, Iterations: 2000}

	c := New(Options{BaseURL: srv.URL})
	first, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if first.Status != "done" {
		t.Fatalf("status %s: %s", first.Status, first.Error)
	}
	second, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if second.ID != first.ID {
		t.Fatalf("idempotent rerun minted a new job: %s vs %s", second.ID, first.ID)
	}
	if fmt.Sprint(second.Result.Placement) != fmt.Sprint(first.Result.Placement) {
		t.Fatal("rerun returned different placement bytes")
	}
}

// jobScript answers GET /v1/jobs/{id} from a list of statuses, the last
// repeating, and records each request's query.
type jobScript struct {
	mu       sync.Mutex
	statuses []string
	queries  []string
}

func (s *jobScript) handler(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	i := min(len(s.queries), len(s.statuses)-1)
	s.queries = append(s.queries, r.URL.RawQuery)
	st := s.statuses[i]
	s.mu.Unlock()
	json.NewEncoder(w).Encode(serve.JobStatus{ID: "job-000001", Status: st})
}

func (s *jobScript) all() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.queries...)
}

// A non-terminal answer means the long-poll window expired: Wait sends
// the same waited GET again at once, with no sleep in between.
func TestWaitResendsAfterExpiredWindow(t *testing.T) {
	js := &jobScript{statuses: []string{"queued", "running", "done"}}
	srv := httptest.NewServer(http.HandlerFunc(js.handler))
	t.Cleanup(srv.Close)
	fs := &fakeSleep{}
	c := New(Options{BaseURL: srv.URL, Sleep: fs.sleep})
	got, err := c.Wait(context.Background(), "job-000001")
	if err != nil || got.Status != "done" {
		t.Fatalf("Wait = %+v, %v", got, err)
	}
	qs := js.all()
	if len(qs) != 3 {
		t.Fatalf("%d GETs, want 3", len(qs))
	}
	for i, q := range qs {
		if q != "wait=30s" {
			t.Errorf("GET %d query = %q, want wait=30s", i+1, q)
		}
	}
	if d := fs.all(); len(d) != 0 {
		t.Fatalf("slept %v between waited GETs", d)
	}
}

// Cancelling ctx while a long-poll is parked on the server ends Wait
// with the context's error.
func TestWaitCancelledMidWait(t *testing.T) {
	parked := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(parked)
		<-r.Context().Done()
	}))
	t.Cleanup(srv.Close)
	c := New(Options{BaseURL: srv.URL})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-parked
		cancel()
	}()
	if _, err := c.Wait(ctx, "job-000001"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
}

// Against the real service, Wait long-polls: one GET per job, however
// long the job runs.
func TestWaitOneGetPerJob(t *testing.T) {
	s, err := serve.New(serve.Options{Workers: 1, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	gets := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			mu.Lock()
			gets[r.URL.Path]++
			mu.Unlock()
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		srv.Close()
	})

	var trace strings.Builder
	trace.WriteString("dwmtrace 1\nname client-wait\nitems 16\n")
	for i := 0; i < 256; i++ {
		fmt.Fprintf(&trace, "R %d\n", (i*5)%16)
	}
	fs := &fakeSleep{}
	c := New(Options{BaseURL: srv.URL, Sleep: fs.sleep})
	for seed := int64(1); seed <= 3; seed++ {
		js, err := c.Run(context.Background(), serve.PlaceRequest{Trace: trace.String(), Seed: seed, Iterations: 200000})
		if err != nil || js.Status != "done" {
			t.Fatalf("seed %d: Run = %+v, %v", seed, js, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(gets) != 3 {
		t.Fatalf("GETs by path = %v, want 3 jobs", gets)
	}
	for path, n := range gets {
		if n != 1 {
			t.Errorf("%s: %d GETs, want 1", path, n)
		}
	}
	if d := fs.all(); len(d) != 0 {
		t.Errorf("Wait slept %v against a long-poll server", d)
	}
}
