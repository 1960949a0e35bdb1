package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/wal"
)

// FuzzHandlePlace feeds arbitrary bodies to POST /v1/place. Every body
// must be answered 2xx or 4xx without a panic, and a 4xx must leave the
// registry and the journal as they were: no job, no job record.
func FuzzHandlePlace(f *testing.F) {
	tr := "dwmtrace 1\nname f\nitems 4\nR 0\nW 1\nR 2\nR 3\nR 0\n"
	for _, req := range []PlaceRequest{
		{Trace: tr, Seed: 1, Iterations: 200},
		{Trace: tr, Seed: 1, Iterations: 200, ClientKey: "k"},
		{Trace: tr, Policy: "organpipe"},
		{Trace: tr, Policy: "nope"},
		{Trace: tr, Resume: "job-000001"},
		{Trace: "dwmtrace 1\nitems 2\nR 5\n"},
		{Trace: "dwmtrace 1\nitems 3000000000\nR 0\n"},
		// 40 bytes declaring 10 000 items, two touched: Canon must not
		// individualize the isolated vertices one by one. The key dedupes
		// it onto the job above after planning, so no 10 000-item job runs
		// and journals its large checkpoints.
		{Trace: "dwmtrace 1\nname big\nitems 10000\nR 0\nW 1\n", Seed: 1, Iterations: 200, ClientKey: "k"},
		{},
	} {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"trace": 7}`))
	f.Add([]byte(`{"trace":"dwmtrace 1\nitems 1\nR 0\n","iterations":-5,"restarts":-1,"deadline_ms":-3}`))
	f.Add([]byte("not json"))

	jl, err := wal.Open(wal.Options{Dir: f.TempDir(), Policy: wal.SyncNever})
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Options{Workers: 1, QueueCap: 4, MaxDeadline: 50 * time.Millisecond, Journal: jl})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		jl.Close()
	})
	// jobRecords counts the journal's job.accept and job.hit records:
	// the ones admission writes (workers append job.done and job.ckpt
	// concurrently, so the raw record count is not stable). It decodes
	// only the record type: the checkpoints of a large job are tens of
	// kilobytes each, and this runs twice per input.
	jobRecords := func(t *testing.T) int {
		n := 0
		err := jl.Replay(func(payload []byte) error {
			var rec struct {
				T string `json:"t"`
			}
			if json.Unmarshal(payload, &rec) == nil && (rec.T == recJobAccept || rec.T == recJobHit) {
				n++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	jobCount := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.jobs)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		jobs0, recs0 := jobCount(), jobRecords(t)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(body)))
		switch {
		case rec.Code >= 200 && rec.Code < 300:
		case rec.Code >= 400 && rec.Code < 500:
			if jobs, recs := jobCount(), jobRecords(t); jobs != jobs0 || recs != recs0 {
				t.Fatalf("%d answer added %d jobs and %d job records", rec.Code, jobs-jobs0, recs-recs0)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}
