package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// headerServer records the traceparent header of every request.
type headerServer struct {
	mu      sync.Mutex
	headers []string
	status  serve.JobStatus
}

func (s *headerServer) handler(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.headers = append(s.headers, r.Header.Get("traceparent"))
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.status)
}

func (s *headerServer) all() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.headers...)
}

// Submit must inject the request's canonical trace — the same
// derivation the server falls back to — so client and server agree on
// the trace ID without any coordination.
func TestSubmitInjectsCanonicalTraceparent(t *testing.T) {
	hs := &headerServer{status: serve.JobStatus{ID: "job-000001", Status: "done"}}
	srv := httptest.NewServer(http.HandlerFunc(hs.handler))
	defer srv.Close()
	c := New(Options{BaseURL: srv.URL})

	req := serve.PlaceRequest{Trace: "t", Seed: 7}
	if _, err := c.Submit(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	headers := hs.all()
	if len(headers) != 1 {
		t.Fatalf("got %d requests, want 1", len(headers))
	}
	// Submit stamps ClientKey before deriving, so compute the expected
	// trace from the stamped request.
	stamped := req
	stamped.ClientKey = serve.RequestKey(req)
	if want := serve.RequestTrace(stamped).TraceParent(); headers[0] != want {
		t.Fatalf("traceparent = %q, want %q", headers[0], want)
	}
	tc, ok := obs.ParseTraceParent(headers[0])
	if !ok || !tc.Valid() {
		t.Fatalf("injected header %q does not parse", headers[0])
	}
}

// A caller-provided TraceContext on the context wins over the canonical
// derivation, and retries re-send the same header.
func TestCallerTraceWinsAndSurvivesRetries(t *testing.T) {
	ss := &scriptServer{
		script: []func(http.ResponseWriter){
			status(http.StatusInternalServerError, `{"error":"blip"}`),
			status(http.StatusTooManyRequests, `{"error":"full"}`),
		},
		final: serve.JobStatus{ID: "job-000002", Status: "done"},
	}
	headers := struct {
		mu  sync.Mutex
		all []string
	}{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		headers.mu.Lock()
		headers.all = append(headers.all, r.Header.Get("traceparent"))
		headers.mu.Unlock()
		ss.handler(w, r)
	}))
	defer srv.Close()
	fs := &fakeSleep{}
	c := New(Options{BaseURL: srv.URL, Sleep: fs.sleep})

	tc := obs.DeriveTraceContext("caller-chosen")
	ctx := obs.ContextWithTrace(context.Background(), tc)
	if _, err := c.Submit(ctx, serve.PlaceRequest{Trace: "t", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	headers.mu.Lock()
	defer headers.mu.Unlock()
	if len(headers.all) != 3 {
		t.Fatalf("got %d attempts, want 3", len(headers.all))
	}
	want := tc.TraceParent()
	for i, h := range headers.all {
		if h != want {
			t.Fatalf("attempt %d traceparent = %q, want %q", i+1, h, want)
		}
	}
}

// OnRetry observes every absorbed failure with the classification the
// SLO report buckets by: the HTTP status for 429/5xx, zero for
// transport errors.
func TestOnRetryObservesAbsorbedFailures(t *testing.T) {
	ss := &scriptServer{
		script: []func(http.ResponseWriter){
			status(http.StatusTooManyRequests, `{"error":"full"}`),
			status(http.StatusBadGateway, `{"error":"upstream"}`),
		},
		final: serve.JobStatus{ID: "job-000003", Status: "done"},
	}
	var mu sync.Mutex
	var infos []RetryInfo
	c, _ := newTestClient(t, ss, Options{
		OnRetry: func(ri RetryInfo) {
			mu.Lock()
			infos = append(infos, ri)
			mu.Unlock()
		},
	})
	if _, err := c.Submit(context.Background(), serve.PlaceRequest{Trace: "t", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(infos) != 2 {
		t.Fatalf("got %d retry callbacks, want 2", len(infos))
	}
	if infos[0].Status != http.StatusTooManyRequests || infos[1].Status != http.StatusBadGateway {
		t.Fatalf("statuses = %d, %d", infos[0].Status, infos[1].Status)
	}
	for i, ri := range infos {
		if ri.Attempt != i+1 {
			t.Errorf("callback %d has attempt %d", i, ri.Attempt)
		}
		if ri.Err == nil || ri.Wait < 0 {
			t.Errorf("callback %d incomplete: %+v", i, ri)
		}
	}
}

// A permanent 4xx never reaches OnRetry — there is nothing to wait out.
func TestOnRetryNotCalledOnPermanentError(t *testing.T) {
	ss := &scriptServer{
		script: []func(http.ResponseWriter){
			status(http.StatusBadRequest, `{"error":"bad"}`),
		},
	}
	called := false
	c, _ := newTestClient(t, ss, Options{OnRetry: func(RetryInfo) { called = true }})
	if _, err := c.Submit(context.Background(), serve.PlaceRequest{Trace: "t"}); err == nil {
		t.Fatal("400 did not surface as an error")
	}
	if called {
		t.Fatal("OnRetry fired for a permanent 4xx")
	}
}

// Wait's GETs retry like any other call: the same deterministic
// traceparent on every attempt, and the same backoff and Retry-After
// schedule, each attempt asking the server to hold the answer.
func TestWaitRetriesAndTraceparent(t *testing.T) {
	ss := &scriptServer{
		script: []func(http.ResponseWriter){
			status(http.StatusInternalServerError, `{"error":"blip"}`),
			func(w http.ResponseWriter) {
				w.Header().Set("Retry-After", "2")
				w.WriteHeader(http.StatusTooManyRequests)
			},
		},
		final: serve.JobStatus{ID: "job-000004", Status: "done"},
	}
	var mu sync.Mutex
	var headers, queries []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		headers = append(headers, r.Header.Get("traceparent"))
		queries = append(queries, r.URL.RawQuery)
		mu.Unlock()
		ss.handler(w, r)
	}))
	defer srv.Close()
	fs := &fakeSleep{}
	c := New(Options{BaseURL: srv.URL, Sleep: fs.sleep})

	if _, err := c.Wait(context.Background(), "job-000004"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(headers) != 3 {
		t.Fatalf("got %d requests, want 3 Wait attempts", len(headers))
	}
	want := obs.DeriveTraceContext("client/job-000004/get").TraceParent()
	for i, h := range headers {
		if h != want {
			t.Errorf("request %d traceparent = %q, want %q", i+1, h, want)
		}
	}
	if queries[0] != "wait=30s" || queries[1] != "wait=30s" || queries[2] != "wait=30s" {
		t.Errorf("queries = %q", queries)
	}
	wantSleeps := []time.Duration{backoffFor("job-000004/get", 1), 2 * time.Second}
	if d := fs.all(); fmt.Sprint(d) != fmt.Sprint(wantSleeps) {
		t.Errorf("retry schedule = %v, want %v", d, wantSleeps)
	}
}
