package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

// startJournaled boots a server whose journal lives under dir and
// returns a stop function that drains the server and closes the wal —
// the clean half of a restart. Unlike startServer's Cleanup, stop can
// be called mid-test so a second instance can recover from the same
// directory.
func startJournaled(t *testing.T, dir string, opts Options) (*Server, string, func()) {
	t.Helper()
	jl, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	opts.Journal = jl
	s, err := New(opts)
	if err != nil {
		jl.Close()
		t.Fatalf("new with journal: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
		if err := jl.Close(); err != nil {
			t.Errorf("wal close: %v", err)
		}
	}
	t.Cleanup(stop)
	return s, "http://" + ln.Addr().String(), stop
}

// appendRaw writes one journal record straight into the wal directory —
// the test's way of forging "the server crashed right after this record
// became durable".
func appendRaw(t *testing.T, dir string, recs ...journalRecord) {
	t.Helper()
	jl, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := jl.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveredJobByteIdenticalToUninterruptedRun is the acceptance
// criterion: a job whose journal holds only the acceptance (the crash
// landed mid-run) is re-derived on replay, and the recovered placement
// is byte-for-byte the placement an uninterrupted journal-less server
// computes for the same request.
func TestRecoveredJobByteIdenticalToUninterruptedRun(t *testing.T) {
	req := PlaceRequest{Trace: testTrace(t), Seed: 7, Iterations: 20000}

	// Control: the uninterrupted run. The cache is disabled on both
	// sides so each derives from scratch.
	_, base := startServer(t, Options{Workers: 1, DisableCache: true})
	_, id := submit(t, base, req)
	want := waitDone(t, base, id)
	if want.Status != statusDone {
		t.Fatalf("control run failed: %s", want.Error)
	}

	// Crash artifact: a journal holding just the accept record.
	dir := t.TempDir()
	appendRaw(t, dir, journalRecord{T: recJobAccept, ID: "job-000005", Req: &req})

	_, base2, _ := startJournaled(t, dir, Options{Workers: 1, DisableCache: true})
	got := waitDone(t, base2, "job-000005")
	if got.Status != statusDone {
		t.Fatalf("recovered job failed: %s", got.Error)
	}
	if got.Result.Cost != want.Result.Cost ||
		fmt.Sprint(got.Result.Placement) != fmt.Sprint(want.Result.Placement) {
		t.Errorf("recovered placement diverged from uninterrupted run: cost %d vs %d",
			got.Result.Cost, want.Result.Cost)
	}
	// The recovered server must mint fresh IDs past the replayed ones.
	_, freshID := submit(t, base2, PlaceRequest{Trace: testTrace(t), Seed: 9, Iterations: 2000})
	if freshID != "job-000006" {
		t.Errorf("fresh job ID %s, want job-000006 (counter must resume past replayed IDs)", freshID)
	}
}

// TestRecoveredWarmStartedJobByteIdentical is the cache-on half of the
// replay contract: a job whose live run adopted a near-hit warm start
// must recover to the same placement. The candidate came from the cache
// at admission, so replay can only reproduce it through the job.accept
// record; a recovered job that re-runs from Propose's start anneals to
// a different placement.
func TestRecoveredWarmStartedJobByteIdentical(t *testing.T) {
	first := PlaceRequest{Trace: testTrace(t), Seed: 3, Iterations: 20000}
	req := PlaceRequest{Trace: testTrace(t), Seed: 4, Iterations: 20000}

	// Control: the same request with no cache, so no warm start.
	_, coldBase := startServer(t, Options{Workers: 1, DisableCache: true})
	_, coldID := submit(t, coldBase, req)
	cold := waitDone(t, coldBase, coldID)

	// Live run: seed 3 fills the cache, so seed 4 (a miss with the same
	// graph) warm-starts from seed 3's placement.
	dir := t.TempDir()
	_, base, stop := startJournaled(t, dir, Options{Workers: 1})
	_, id1 := submit(t, base, first)
	waitDone(t, base, id1)
	_, id := submit(t, base, req)
	want := waitDone(t, base, id)
	stop()
	if want.Status != statusDone || cold.Status != statusDone {
		t.Fatalf("live runs failed: %q, %q", want.Error, cold.Error)
	}
	if fmt.Sprint(want.Result.Placement) == fmt.Sprint(cold.Result.Placement) {
		t.Fatal("the warm start did not change the result; the test shows nothing")
	}

	// Crash artifact: only the live job's acceptance, as journaled.
	jl, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var accept *journalRecord
	err = jl.Replay(func(payload []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		if rec.T == recJobAccept && rec.ID == id {
			accept = &rec
		}
		return nil
	})
	jl.Close()
	if err != nil || accept == nil {
		t.Fatalf("job.accept of %s not found in the journal (err %v)", id, err)
	}
	crashed := t.TempDir()
	appendRaw(t, crashed, *accept)

	_, base2, _ := startJournaled(t, crashed, Options{Workers: 1})
	got := waitDone(t, base2, id)
	if got.Status != statusDone {
		t.Fatalf("recovered job failed: %s", got.Error)
	}
	if got.Result.Cost != want.Result.Cost ||
		fmt.Sprint(got.Result.Placement) != fmt.Sprint(want.Result.Placement) {
		t.Errorf("recovered placement diverged from the warm-started live run: cost %d vs %d",
			got.Result.Cost, want.Result.Cost)
	}

	// A journaled candidate that is not a placement of the trace's items
	// is dropped, and the job replays cold.
	bad := *accept
	bad.Warm = append([]int(nil), accept.Warm...)
	bad.Warm[0] = bad.Warm[1]
	badDir := t.TempDir()
	appendRaw(t, badDir, bad)
	_, base3, _ := startJournaled(t, badDir, Options{Workers: 1})
	got = waitDone(t, base3, id)
	if got.Status != statusDone || fmt.Sprint(got.Result.Placement) != fmt.Sprint(cold.Result.Placement) {
		t.Errorf("a job with an invalid journaled warm start did not replay cold: %+v", got)
	}
}

// journaledRecords returns the records of dir's journal that match keep,
// in journal order.
func journaledRecords(t *testing.T, dir string, keep func(journalRecord) bool) []journalRecord {
	t.Helper()
	jl, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	var out []journalRecord
	err = jl.Replay(func(payload []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		if keep(rec) {
			out = append(out, rec)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRecoveredResumedJobByteIdentical is the resume half of the replay
// contract: a job submitted with "resume" starts from the named job's
// checkpoint, so a crash mid-run must recover to the placement the live
// run computed, not re-run from Propose's start.
func TestRecoveredResumedJobByteIdentical(t *testing.T) {
	first := PlaceRequest{Trace: testTrace(t), Seed: 3, Iterations: 20000}
	opts := Options{Workers: 1, DisableCache: true}

	// Live run: B resumes from A's result.
	dir := t.TempDir()
	_, base, stop := startJournaled(t, dir, opts)
	_, idA := submit(t, base, first)
	waitDone(t, base, idA)
	req := PlaceRequest{Trace: testTrace(t), Seed: 4, Iterations: 20000, Resume: idA}
	_, idB := submit(t, base, req)
	want := waitDone(t, base, idB)
	stop()

	// Control: B's request without the resume.
	_, coldBase := startServer(t, opts)
	coldReq := req
	coldReq.Resume = ""
	_, coldID := submit(t, coldBase, coldReq)
	cold := waitDone(t, coldBase, coldID)
	if want.Status != statusDone || cold.Status != statusDone {
		t.Fatalf("live runs failed: %q, %q", want.Error, cold.Error)
	}
	if fmt.Sprint(want.Result.Placement) == fmt.Sprint(cold.Result.Placement) {
		t.Fatal("the resume did not change the result; the test shows nothing")
	}

	// Crash artifact: A finished, B accepted but not done.
	recs := journaledRecords(t, dir, func(rec journalRecord) bool {
		return rec.ID == idA && (rec.T == recJobAccept || rec.T == recJobDone) ||
			rec.ID == idB && rec.T == recJobAccept
	})
	if len(recs) != 3 || recs[2].ID != idB {
		t.Fatalf("journal holds %d of the 3 records wanted: %+v", len(recs), recs)
	}
	replay := func(accept journalRecord) JobStatus {
		t.Helper()
		crashed := t.TempDir()
		appendRaw(t, crashed, recs[0], recs[1], accept)
		_, base2, stop2 := startJournaled(t, crashed, opts)
		defer stop2()
		got := waitDone(t, base2, idB)
		if got.Status != statusDone {
			t.Fatalf("recovered job failed: %s", got.Error)
		}
		return got
	}
	got := replay(recs[2])
	if got.Result.Cost != want.Result.Cost ||
		fmt.Sprint(got.Result.Placement) != fmt.Sprint(want.Result.Placement) {
		t.Errorf("recovered placement diverged from the resumed live run: cost %d vs %d",
			got.Result.Cost, want.Result.Cost)
	}

	// A journal without the field, or with a start that is not a
	// placement of the trace's items, replays from Propose's start.
	old := recs[2]
	old.Resume = nil
	bad := recs[2]
	bad.Resume = append([]int(nil), recs[2].Resume...)
	bad.Resume[0] = bad.Resume[1]
	for _, accept := range []journalRecord{old, bad} {
		if got := replay(accept); fmt.Sprint(got.Result.Placement) != fmt.Sprint(cold.Result.Placement) {
			t.Errorf("resume %v: replay did not run from the policy's start: cost %d, cold %d",
				accept.Resume, got.Result.Cost, cold.Result.Cost)
		}
	}
}

// getRaw sends GET /v1/jobs/{id}, with ?wait=<wait> when wait is not
// empty, and returns the 200 body as sent.
func getRaw(t *testing.T, base, id, wait string) []byte {
	t.Helper()
	url := base + "/v1/jobs/" + id
	if wait != "" {
		url += "?wait=" + wait
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d: %s", id, resp.StatusCode, out.Bytes())
	}
	return out.Bytes()
}

// jobBytes re-encodes a GET /v1/jobs/{id} body without the named
// top-level keys and without progress's checkpoint_age_ms. The age
// counts up from the last checkpoint to the moment of the read, so it
// is the one field of a finished job's answer that changes with time.
// Every other field keeps its bytes as sent.
func jobBytes(t *testing.T, raw []byte, drop ...string) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("job body %q: %v", raw, err)
	}
	for _, k := range drop {
		delete(m, k)
	}
	if p, ok := m["progress"]; ok {
		var pm map[string]json.RawMessage
		if err := json.Unmarshal(p, &pm); err != nil {
			t.Fatal(err)
		}
		delete(pm, "checkpoint_age_ms")
		b, err := json.Marshal(pm)
		if err != nil {
			t.Fatal(err)
		}
		m["progress"] = b
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestTerminalJobServedFromJournal: jobs that were terminal before the
// restart are served from their journaled bytes without re-running — a
// cold done job, a cache hit, and a failed job. After the restart each
// GET must match the pre-restart GET byte for byte in status, trace,
// result, error, cache_hit and trace_id. elapsed_ms and progress are
// not journaled (a replayed job reports neither), so they are left out
// of the comparison.
func TestTerminalJobServedFromJournal(t *testing.T) {
	dir := t.TempDir()
	req := PlaceRequest{Trace: testTrace(t), Seed: 3, Iterations: 4000}
	// A finished job whose journaled placement is not a permutation: a
	// job that resumes from it fails when the anneal checks its start.
	corrupt := PlaceRequest{Trace: testTrace(t), Seed: 1, Iterations: 4000}
	appendRaw(t, dir,
		journalRecord{T: recJobAccept, ID: "job-000001", Req: &corrupt},
		journalRecord{T: recJobDone, ID: "job-000001", Result: &Result{Policy: PolicyAnneal, Placement: make([]int, 48)}},
	)
	_, base, stop := startJournaled(t, dir, Options{Workers: 1})
	_, cold := submit(t, base, req)
	getRaw(t, base, cold, "1m") // its result is cached before it is done
	_, hit := submit(t, base, req)
	_, failed := submit(t, base, PlaceRequest{Trace: testTrace(t), Seed: 5, Iterations: 4000, Resume: "job-000001"})

	cases := []struct {
		name, id, status string
		cacheHit         bool
	}{
		{"cold done", cold, statusDone, false},
		{"cache hit", hit, statusDone, true},
		{"failed", failed, statusFailed, false},
	}
	want := make(map[string][]byte)
	for _, c := range cases {
		raw := getRaw(t, base, c.id, "1m")
		var js JobStatus
		if err := json.Unmarshal(raw, &js); err != nil {
			t.Fatal(err)
		}
		if js.Status != c.status || js.CacheHit != c.cacheHit || js.Trace.Items != 48 {
			t.Fatalf("%s: before restart %s", c.name, raw)
		}
		want[c.id] = raw
	}
	stop()

	_, base2, _ := startJournaled(t, dir, Options{Workers: 1})
	for _, c := range cases {
		got := jobBytes(t, getRaw(t, base2, c.id, ""), "elapsed_ms", "progress")
		if w := jobBytes(t, want[c.id], "elapsed_ms", "progress"); got != w {
			t.Errorf("%s: GET diverged across restart:\n pre: %s\npost: %s", c.name, w, got)
		}
	}
}

// TestCheckpointSeedsRecoveredJob: a journaled checkpoint pre-seeds the
// recovered job's best-so-far, so cancelling immediately after recovery
// still yields at least the pre-crash best.
func TestCheckpointSeedsRecoveredJob(t *testing.T) {
	dir := t.TempDir()
	req := PlaceRequest{Trace: testTrace(t), Seed: 5, Iterations: 2000}
	ckpt := make([]int, 48)
	for i := range ckpt {
		ckpt[i] = i
	}
	appendRaw(t, dir,
		journalRecord{T: recJobAccept, ID: "job-000001", Req: &req},
		journalRecord{T: recJobCheckpoint, ID: "job-000001", Placement: ckpt, Cost: 123456},
	)
	s, _, _ := startJournaled(t, dir, Options{Workers: 1, DisableCache: true})
	j, ok := s.lookup("job-000001")
	if !ok {
		t.Fatal("recovered job missing from registry")
	}
	best, ok := j.best()
	if !ok {
		t.Fatal("recovered job has no best-so-far despite a journaled checkpoint")
	}
	// The worker may already have improved past the seeded checkpoint;
	// what must hold is that a best existed from the instant New returned
	// and covers the full item space.
	if len(best) != 48 {
		t.Fatalf("recovered checkpoint covers %d items, want 48", len(best))
	}
}

// TestStreamReplayedByteIdentical: a stream's status after restart is
// byte-identical to its status before — the chunk-invariance contract
// re-derived from the journaled batches.
func TestStreamReplayedByteIdentical(t *testing.T) {
	dir := t.TempDir()
	_, base, stop := startJournaled(t, dir, Options{})
	code, st := createStream(t, base, StreamRequest{Items: 32, Seed: 11, RoundEvery: 16})
	if code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	for batch := 0; batch < 6; batch++ {
		acc := make([]int, 20)
		for i := range acc {
			acc[i] = (batch*7 + i*3) % 32
		}
		if code, _ := appendStream(t, base, st.ID, acc); code != http.StatusOK {
			t.Fatalf("append %d: %d", batch, code)
		}
	}
	want := getStream(t, base, st.ID)
	stop()

	_, base2, _ := startJournaled(t, dir, Options{})
	got := getStream(t, base2, st.ID)
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		t.Errorf("stream status diverged across restart:\n pre: %s\npost: %s", wb, gb)
	}
}

// TestEmptyAppendJournalsNothing: an empty batch is answered with the
// stream's unchanged status and journals no stream.append record, so a
// restart has no record to count in serve.wal.record_skips.
func TestEmptyAppendJournalsNothing(t *testing.T) {
	dir := t.TempDir()
	tap := &recordTap{FS: wal.OS(), types: []string{recStreamAppend}}
	s, stop := openTapped(t, dir, tap, Options{})
	create, _ := json.Marshal(StreamRequest{Items: 8, Seed: 3})
	rec := serveBody(s, http.MethodPost, "/v1/streams", create)
	var st StreamStatus
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	path := "/v1/streams/" + st.ID
	if rec := serveBody(s, http.MethodPost, path+"/append", []byte(`{"accesses":[1,2,3,1]}`)); rec.Code != http.StatusOK {
		t.Fatalf("append: %d %s", rec.Code, rec.Body)
	}
	want := serveBody(s, http.MethodGet, path, nil).Body.String()
	recs := tap.n.Load()
	for _, body := range []string{`{"accesses":[]}`, `{}`} {
		rec := serveBody(s, http.MethodPost, path+"/append", []byte(body))
		if rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Errorf("empty append %s: %d %s, want 200 %s", body, rec.Code, rec.Body, want)
		}
	}
	if got := tap.n.Load() - recs; got != 0 {
		t.Errorf("empty appends journaled %d stream.append records, want 0", got)
	}
	stop()

	skips := obsRecordSkips.Value()
	s2, _ := openTapped(t, dir, tap, Options{})
	if got := obsRecordSkips.Value() - skips; got != 0 {
		t.Errorf("replay counted %d record skips, want 0", got)
	}
	if got := serveBody(s2, http.MethodGet, path, nil).Body.String(); got != want {
		t.Errorf("stream after restart:\n got %s\nwant %s", got, want)
	}
}

// TestRejectedAppendJournalsNothing: a batch with an access outside the
// stream's items is answered 400 before it reaches the journal, so it
// costs no record and no fsync. A journal that already holds such a
// record, as one written before the handler checked first may, replays
// to the same stream with no record skip: the session re-rejects it.
func TestRejectedAppendJournalsNothing(t *testing.T) {
	dir := t.TempDir()
	tap := &recordTap{FS: wal.OS(), types: []string{recStreamAppend}}
	s, stop := openTapped(t, dir, tap, Options{})
	create, _ := json.Marshal(StreamRequest{Items: 8, Seed: 3})
	rec := serveBody(s, http.MethodPost, "/v1/streams", create)
	var st StreamStatus
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	path := "/v1/streams/" + st.ID
	if rec := serveBody(s, http.MethodPost, path+"/append", []byte(`{"accesses":[1,2,3,1]}`)); rec.Code != http.StatusOK {
		t.Fatalf("append: %d %s", rec.Code, rec.Body)
	}
	want := serveBody(s, http.MethodGet, path, nil).Body.String()
	recs := tap.n.Load()
	if rec := serveBody(s, http.MethodPost, path+"/append", []byte(`{"accesses":[1,8]}`)); rec.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range append: %d %s, want 400", rec.Code, rec.Body)
	}
	if got := tap.n.Load() - recs; got != 0 {
		t.Errorf("rejected append journaled %d stream.append records, want 0", got)
	}
	stop()

	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	old := &journal{log: l}
	if err := old.append(context.Background(), journalRecord{T: recStreamAppend, ID: st.ID, Accesses: []int{1, 8}}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	skips := obsRecordSkips.Value()
	s2, _ := openTapped(t, dir, tap, Options{})
	if got := obsRecordSkips.Value() - skips; got != 0 {
		t.Errorf("replay counted %d record skips, want 0", got)
	}
	if got := serveBody(s2, http.MethodGet, path, nil).Body.String(); got != want {
		t.Errorf("stream after replaying a rejected batch:\n got %s\nwant %s", got, want)
	}
}

// TestDeletedStreamNeverResurrected (run under -race in ci): DELETE
// racing in-flight appends must never leave a journaled-but-orphaned
// session after replay. Whatever interleaving the race takes, a
// tombstoned stream is gone for good.
func TestDeletedStreamNeverResurrected(t *testing.T) {
	dir := t.TempDir()
	_, base, stop := startJournaled(t, dir, Options{})
	code, st := createStream(t, base, StreamRequest{Items: 16, Seed: 1})
	if code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}

	// Appenders race the delete; status codes are deliberately ignored —
	// 200, 404, and 503 are all legal outcomes mid-race.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				body, _ := json.Marshal(StreamAppendRequest{Accesses: []int{(g + i) % 16}})
				resp, err := http.Post(base+"/v1/streams/"+st.ID+"/append", "application/json",
					bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(g)
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/streams/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deleted := resp.StatusCode == http.StatusOK
	wg.Wait()
	stop()

	s2, base2, _ := startJournaled(t, dir, Options{})
	if deleted {
		if _, ok := s2.lookupStream(st.ID); ok {
			t.Fatal("tombstoned stream resurrected by replay")
		}
		gr, err := http.Get(base2 + "/v1/streams/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		gr.Body.Close()
		if gr.StatusCode != http.StatusNotFound {
			t.Fatalf("GET deleted stream after replay: %d, want 404", gr.StatusCode)
		}
	}
}

// TestClientKeyIdempotentAcrossRestart: a ClientKey resubmission returns
// the original job, even when the original was accepted by the previous
// process.
func TestClientKeyIdempotentAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	req := PlaceRequest{Trace: testTrace(t), Seed: 2, Iterations: 2000}
	req.ClientKey = RequestKey(req)

	_, base, stop := startJournaled(t, dir, Options{Workers: 1, DisableCache: true})
	_, id := submit(t, base, req)
	waitDone(t, base, id)

	// Same-process resubmission dedupes with 200 + the original job.
	resp, body := postJSON(t, base+"/v1/place", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dedupe status %d: %s", resp.StatusCode, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if js.ID != id {
		t.Fatalf("dedupe returned job %s, want %s", js.ID, id)
	}
	stop()

	// Post-restart resubmission hits the replayed key index.
	_, base2, _ := startJournaled(t, dir, Options{Workers: 1, DisableCache: true})
	resp2, body2 := postJSON(t, base2+"/v1/place", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-restart dedupe status %d: %s", resp2.StatusCode, body2)
	}
	var js2 JobStatus
	if err := json.Unmarshal(body2, &js2); err != nil {
		t.Fatal(err)
	}
	if js2.ID != id {
		t.Fatalf("post-restart dedupe returned job %s, want %s", js2.ID, id)
	}
}

// TestRetryAfterJitterDeterministic pins the jittered Retry-After for a
// fixed request: base retryAfterSeconds, identity-hash jitter in
// [0, retryAfterSeconds].
func TestRetryAfterJitterDeterministic(t *testing.T) {
	req := PlaceRequest{Trace: testTrace(t), Seed: 1, Iterations: 3_000_000}
	want := retryAfterSeconds + int(requestDigest(req)%(retryAfterSeconds+1))
	if want < retryAfterSeconds || want > 2*retryAfterSeconds {
		t.Fatalf("jittered hint %d outside [%d, %d]", want, retryAfterSeconds, 2*retryAfterSeconds)
	}
	// The same request always derives the same hint, and the hint is a
	// pure function of the identity fields — ClientKey must not perturb it.
	withKey := req
	withKey.ClientKey = "opaque-client-token"
	if requestDigest(withKey) != requestDigest(req) {
		t.Error("ClientKey leaked into the request identity digest")
	}
	seeded := req
	seeded.Seed = 2
	if requestDigest(seeded) == requestDigest(req) {
		t.Error("digest ignores the seed")
	}
}

// TestJournalSkipsForeignRecords: unknown record types and undecodable
// payloads are skipped, not fatal — a journal written by a newer build
// still replays.
func TestJournalSkipsForeignRecords(t *testing.T) {
	dir := t.TempDir()
	req := PlaceRequest{Trace: testTrace(t), Seed: 4, Iterations: 2000}
	jl, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Append([]byte("not json at all")); err != nil {
		t.Fatal(err)
	}
	future, _ := json.Marshal(journalRecord{T: "job.frobnicate", ID: "job-000009"})
	if err := jl.Append(future); err != nil {
		t.Fatal(err)
	}
	accept, _ := json.Marshal(journalRecord{T: recJobAccept, ID: "job-000001", Req: &req})
	if err := jl.Append(accept); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	_, base, _ := startJournaled(t, dir, Options{Workers: 1, DisableCache: true})
	js := waitDone(t, base, "job-000001")
	if js.Status != statusDone {
		t.Fatalf("job behind foreign records did not recover: %s", js.Error)
	}
}
