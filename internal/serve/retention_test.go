package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// heapAlloc returns the live heap after two collections (the second
// frees what the first only unlinked, such as sync.Pool victims).
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// renumbered renders tr in the dwmtrace text format with item i renamed
// perm[i]: the same placement problem under other labels, so it is an
// exact cache hit for any request tr's own text would hit.
func renumbered(tr *trace.Trace, perm []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "dwmtrace 1\nname %s\nitems %d\n", tr.Name, tr.NumItems)
	for _, a := range tr.Accesses {
		op := "R "
		if a.Write {
			op = "W "
		}
		b.WriteString(op)
		b.WriteString(strconv.Itoa(perm[a.Item]))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFinishedJobRetention bounds what a finished job keeps. It submits
// renumbered cache hits and cold runs of a trace whose text is over
// 40 KB, and requires the live heap to grow by at most 8 KB per job once
// all of them are done: a finished job keeps what a GET returns, not its
// request text, parsed trace or cache plan (together about 236 KB here).
// Every job must also answer a later GET with the bytes it gave at the
// 202 (hits) or at its first waited GET (cold runs).
func TestFinishedJobRetention(t *testing.T) {
	const maxPerJob = 8 << 10
	hits, colds := 200, 20
	if raceEnabled {
		// make race-repeat runs this test ten times under -race, where a
		// hit costs about 45 ms; a tenth of the jobs still races the same
		// paths and measures the same per-job retention.
		hits, colds = 20, 2
	}
	orig := workload.Zipf(32, 10000, 1.2, 3)
	text := encodeTrace(t, orig)
	if len(text) < 40<<10 {
		t.Fatalf("trace text is %d bytes, want at least 40 KB", len(text))
	}
	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	place := func(req PlaceRequest) JobStatus {
		rec := serveDirect(t, s, http.MethodPost, "/v1/place", req)
		var js JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil || rec.Code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", rec.Code, rec.Body)
		}
		return js
	}
	waited := func(id string) []byte {
		rec := serveDirect(t, s, http.MethodGet, "/v1/jobs/"+id+"?wait=30s", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("wait %s: %d %s", id, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	// Each renumbered twin is built and dropped inside the measured span,
	// and the second reading follows Shutdown, which returns once every
	// worker has: what lands between the two heap readings is what the
	// server keeps of each job.
	before := heapAlloc()
	first := make(map[string][]byte, hits+colds+1)
	// The cold run of the original trace stores the entry every
	// renumbered twin below hits.
	hitReq := PlaceRequest{Trace: text, Seed: 1, Iterations: 2000}
	id := place(hitReq).ID
	first[id] = waited(id)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < hits; i++ {
		req := hitReq
		req.Trace = renumbered(orig, rng.Perm(orig.NumItems))
		rec := serveDirect(t, s, http.MethodPost, "/v1/place", req)
		var js JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil || rec.Code != http.StatusAccepted || !js.CacheHit {
			t.Fatalf("renumbered twin %d: %d %s", i, rec.Code, rec.Body)
		}
		first[js.ID] = rec.Body.Bytes()
	}
	for i := 0; i < colds; i++ {
		id := place(PlaceRequest{Trace: text, Seed: int64(100 + i), Iterations: 2000}).ID
		first[id] = waited(id)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := heapAlloc()
	// The shared inputs were live at the first reading; keep them live at
	// the second.
	runtime.KeepAlive(orig)
	runtime.KeepAlive(text)

	perJob := (int64(after) - int64(before)) / int64(len(first))
	t.Logf("live heap %d -> %d bytes: %d bytes per finished job", before, after, perJob)
	if perJob > maxPerJob {
		t.Errorf("finished jobs retain %d bytes each, want at most %d", perJob, maxPerJob)
	}
	for id, raw := range first {
		var js JobStatus
		if err := json.Unmarshal(raw, &js); err != nil || js.Status != statusDone {
			t.Fatalf("job %s: first answer %s", id, raw)
		}
		later := serveDirect(t, s, http.MethodGet, "/v1/jobs/"+id, nil).Body.Bytes()
		if got, want := jobBytes(t, later), jobBytes(t, raw); got != want {
			t.Errorf("job %s: GET changed after the job finished:\n first: %s\n later: %s", id, want, got)
		}
	}
}

// TestWaitAndCancelRaceFinish races waited GETs and DELETEs against the
// workers finishing the same jobs (run under -race -count=10 in ci).
// Whichever way each race goes, every waited GET answers with a
// terminal job, every job ends done with a full placement, and a GET
// after the fact returns what the waited GETs saw.
func TestWaitAndCancelRaceFinish(t *testing.T) {
	const jobs, waiters = 8, 3
	s, err := New(Options{Workers: 2, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ids := make([]string, jobs)
	for i := range ids {
		rec := serveDirect(t, s, http.MethodPost, "/v1/place", PlaceRequest{Trace: testTrace(t), Seed: int64(i), Iterations: 40000})
		var js JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil || rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, rec.Code, rec.Body)
		}
		ids[i] = js.ID
	}
	answers := make([][]*httptest.ResponseRecorder, jobs)
	var wg sync.WaitGroup
	for i, id := range ids {
		answers[i] = make([]*httptest.ResponseRecorder, waiters)
		for w := 0; w < waiters; w++ {
			wg.Add(1)
			go func(i, w int, id string) {
				defer wg.Done()
				answers[i][w] = serveDirect(t, s, http.MethodGet, "/v1/jobs/"+id+"?wait=1m", nil)
			}(i, w, id)
		}
		// Cancel every other job: some are still queued, some are
		// running, and some have already finished when the DELETE lands.
		if i%2 == 1 {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				serveDirect(t, s, http.MethodDelete, "/v1/jobs/"+id, nil)
			}(id)
		}
	}
	wg.Wait()

	for i, id := range ids {
		later := serveDirect(t, s, http.MethodGet, "/v1/jobs/"+id, nil).Body.Bytes()
		for w, rec := range answers[i] {
			var js JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil || rec.Code != http.StatusOK || js.Status != statusDone {
				t.Fatalf("job %s waiter %d: answered %d %s", id, w, rec.Code, rec.Body)
			}
			checkPlacement(t, js, 48)
			if a, b := jobBytes(t, rec.Body.Bytes()), jobBytes(t, later); a != b {
				t.Errorf("job %s waiter %d saw %s, a later GET %s", id, w, a, b)
			}
		}
	}
}
