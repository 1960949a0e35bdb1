package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/placecache"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/workload"
)

// serveDirect runs one request through the server's handler without a
// listener, so it also works after Shutdown has closed the HTTP server.
func serveDirect(t *testing.T, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(raw)))
	return rec
}

// primeCache runs req to completion on a journal-less server backed by
// cache, so that a later submission of the same computation is an exact
// cache hit.
func primeCache(t *testing.T, cache *placecache.Cache, req PlaceRequest) {
	t.Helper()
	s, err := New(Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	rec := serveDirect(t, s, http.MethodPost, "/v1/place", req)
	var js JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil || rec.Code != http.StatusAccepted {
		t.Fatalf("prime submit: %d %s", rec.Code, rec.Body)
	}
	rec = serveDirect(t, s, http.MethodGet, "/v1/jobs/"+js.ID+"?wait=30s", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil || js.Status != statusDone {
		t.Fatalf("prime job: %d %s", rec.Code, rec.Body)
	}
}

// TestConcurrentClientKeyOneJob releases identical submissions together.
// They share a ClientKey, so exactly one job may exist afterwards: every
// caller gets its ID, the journal holds one acceptance, and
// serve.tenant.requests{outcome="accepted"} moves by one.
func TestConcurrentClientKeyOneJob(t *testing.T) {
	const callers = 16
	dir := t.TempDir()
	_, base, stop := startJournaled(t, dir, Options{Workers: 1})
	// A trace large enough that planning (graph build and canonical
	// form, done before admission) takes long enough for the callers to
	// overlap.
	var tb bytes.Buffer
	if err := trace.Encode(&tb, workload.Zipf(256, 40000, 1.1, 5)); err != nil {
		t.Fatal(err)
	}
	req := PlaceRequest{Trace: tb.String(), Seed: 11, Iterations: 2000}
	req.ClientKey = RequestKey(req)
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	acceptedSeries := obsTenantRequests.With(tenantLabel(req.Tenant), policyLabel(req.Policy), outcomeAccepted)
	accepted := acceptedSeries.Value()

	start := make(chan struct{})
	ids := make([]string, callers)
	codes := make([]int, callers)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(base+"/v1/place", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var js JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
				t.Error(err)
				return
			}
			ids[i], codes[i] = js.ID, resp.StatusCode
		}(i)
	}
	close(start)
	wg.Wait()

	fresh := 0
	for i, id := range ids {
		if id != ids[0] {
			t.Errorf("caller %d got job %q, caller 0 got %q", i, id, ids[0])
		}
		switch codes[i] {
		case http.StatusAccepted:
			fresh++
		case http.StatusOK:
		default:
			t.Errorf("caller %d: status %d", i, codes[i])
		}
	}
	if fresh != 1 {
		t.Errorf("%d callers were answered 202, want exactly 1 (the rest deduped with 200)", fresh)
	}
	if got := acceptedSeries.Value() - accepted; got != 1 {
		t.Errorf("serve.tenant.requests{outcome=\"accepted\"} moved by %d, want 1", got)
	}

	// Only the journal matters from here on: cancel the job so the
	// drain in stop does not wait for a full run.
	del, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+ids[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	stop()
	jl, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	var accepts []string
	if err := jl.Replay(func(payload []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		if rec.T == recJobAccept {
			accepts = append(accepts, rec.ID)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(accepts) != 1 {
		t.Errorf("journal holds %d %s records (%v), want 1", len(accepts), recJobAccept, accepts)
	}
}

// TestAdmitRefusalLeavesNoState drives both refusals of the admission
// step — shutdown has begun, and the journal cannot make the acceptance
// durable — on both kinds of submission, an exact cache hit and a queued
// miss. Each must answer 503 and leave nothing behind: the next job ID
// stays unknown, the ClientKey stays free, and the queue depth does not
// move. A journal refusal is counted once, by the wal's own
// <prefix>.append_errors, which each journal case opens under its own
// prefix.
func TestAdmitRefusalLeavesNoState(t *testing.T) {
	hit := PlaceRequest{Trace: testTrace(t), Seed: 7, Iterations: 2000}
	miss := PlaceRequest{Trace: testTrace(t), Seed: 8, Iterations: 2000}
	cache := placecache.NewMemory(0)
	primeCache(t, cache, hit)
	tr, err := parseTrace(hit)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := planCache(cache, hit, tr); err != nil || p.hit == nil {
		t.Fatalf("primed cache does not answer the hit request: %v", err)
	}

	shuttingDown := func(t *testing.T, _ string) *Server {
		s, err := New(Options{Workers: 1, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		return s
	}
	brokenJournal := func(t *testing.T, walPrefix string) *Server {
		fs := faultfs.New(nil, faultfs.Options{Seed: 1, SyncErrPerMille: 1000})
		jl, err := wal.Open(wal.Options{Dir: t.TempDir(), FS: fs, MetricsPrefix: walPrefix})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Options{Workers: 1, Cache: cache, Journal: jl})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			s.Shutdown(context.Background())
			jl.Close()
		})
		return s
	}
	for _, tc := range []struct {
		name      string
		server    func(*testing.T, string) *Server
		req       PlaceRequest
		wantErr   string
		walPrefix string
	}{
		{"shutdown/hit", shuttingDown, hit, "server is shutting down", ""},
		{"shutdown/queued", shuttingDown, miss, "server is shutting down", ""},
		{"journal/hit", brokenJournal, hit, "journal unavailable: ", "serve_test.refusal.hit"},
		{"journal/queued", brokenJournal, miss, "journal unavailable: ", "serve_test.refusal.queued"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.server(t, tc.walPrefix)
			req := tc.req
			req.ClientKey = "refused-" + tc.name
			s.mu.Lock()
			next := fmt.Sprintf("job-%06d", s.nextID+1)
			s.mu.Unlock()
			depth := obsQueueDepth.Value()
			var appendErrs *obs.Counter
			var errsBefore int64
			if tc.walPrefix != "" {
				appendErrs = obs.GetCounter(tc.walPrefix + ".append_errors")
				errsBefore = appendErrs.Value()
			}

			rec := serveDirect(t, s, http.MethodPost, "/v1/place", req)
			var body apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatal(err)
			}
			if rec.Code != http.StatusServiceUnavailable || !strings.HasPrefix(body.Error, tc.wantErr) {
				t.Fatalf("answer %d %q, want 503 %q…", rec.Code, body.Error, tc.wantErr)
			}
			if rec := serveDirect(t, s, http.MethodGet, "/v1/jobs/"+next, nil); rec.Code != http.StatusNotFound {
				t.Errorf("GET %s after a refusal: %d, want 404", next, rec.Code)
			}
			s.mu.Lock()
			owner, registered := s.byKey[req.ClientKey]
			jobs := len(s.jobs)
			s.mu.Unlock()
			if registered {
				t.Errorf("refused ClientKey registered to %s", owner)
			}
			if jobs != 0 {
				t.Errorf("%d jobs registered after a refusal", jobs)
			}
			if got := obsQueueDepth.Value(); got != depth {
				t.Errorf("serve.queue.depth %d → %d across a refusal", depth, got)
			}
			if appendErrs != nil {
				if got := appendErrs.Value() - errsBefore; got != 1 {
					t.Errorf("%s.append_errors rose by %d across one refused request, want 1", tc.walPrefix, got)
				}
			}
		})
	}
}

// TestAdmitDedupAfterShutdown pins the admission order: the ClientKey
// lookup comes before the shutdown check, so a resubmission of an
// accepted job is still answered with that job while the server drains.
func TestAdmitDedupAfterShutdown(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	req := PlaceRequest{Trace: testTrace(t), Seed: 3, Iterations: 2000, ClientKey: "drain"}
	first := serveDirect(t, s, http.MethodPost, "/v1/place", req)
	if first.Code != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", first.Code, first.Body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	again := serveDirect(t, s, http.MethodPost, "/v1/place", req)
	var a, b JobStatus
	if err := json.Unmarshal(first.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(again.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if again.Code != http.StatusOK || b.ID != a.ID {
		t.Errorf("resubmission after shutdown: %d job %q, want 200 job %q", again.Code, b.ID, a.ID)
	}
}
