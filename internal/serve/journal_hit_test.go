package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/placecache"
	"repro/internal/trace"
	"repro/internal/wal"
)

// journalPayloads returns every record committed to s's journal so far,
// in journal order.
func journalPayloads(t *testing.T, s *Server) [][]byte {
	t.Helper()
	var out [][]byte
	err := s.opts.Journal.Replay(func(payload []byte) error {
		out = append(out, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCacheHitJournalsOneSmallRecord: an exact cache hit appends exactly
// one journal record, a job.hit under 2 KB that holds the request
// without its trace text, and costs one fsync.
func TestCacheHitJournalsOneSmallRecord(t *testing.T) {
	s, base, _ := startJournaled(t, t.TempDir(), Options{Workers: 1})
	req := PlaceRequest{Trace: testTrace(t), Seed: 21, Iterations: 4000, Tenant: "acme"}
	_, id := submit(t, base, req)
	if js := waitDone(t, base, id); js.Status != statusDone || js.CacheHit {
		t.Fatalf("cold job: %+v", js)
	}
	before := journalPayloads(t, s)
	stats0 := s.opts.Journal.Stats()

	req.ClientKey = "hit-key"
	_, hit := submit(t, base, req)
	if js := getJob(t, base, hit); !js.CacheHit || js.Status != statusDone {
		t.Fatalf("duplicate was not a cache hit: %+v", js)
	}
	after := journalPayloads(t, s)
	if len(after) != len(before)+1 {
		t.Fatalf("a cache hit appended %d records, want 1", len(after)-len(before))
	}
	stats1 := s.opts.Journal.Stats()
	if a, y := stats1.Appends-stats0.Appends, stats1.Syncs-stats0.Syncs; a != 1 || y != 1 {
		t.Errorf("a cache hit cost %d appends and %d fsyncs, want 1 and 1", a, y)
	}
	payload := after[len(after)-1]
	if len(payload) >= 2048 {
		t.Errorf("job.hit record is %d bytes, want under 2048", len(payload))
	}
	if bytes.Contains(payload, []byte("dwmtrace")) {
		t.Errorf("job.hit record holds the trace text: %s", payload)
	}
	var rec journalRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.T != recJobHit || rec.ID != hit || rec.Req == nil || rec.Req.Trace != "" ||
		rec.Req.ClientKey != "hit-key" || rec.Req.Tenant != "acme" || rec.Req.Seed != 21 ||
		rec.Info == nil || rec.Info.Items != 48 || rec.Result == nil || rec.Trace == "" {
		t.Errorf("job.hit record = %s", payload)
	}
}

// TestHitRecordReplaysToLiveGET: a job.hit replays to the GET body the
// live server gave (result, cache_hit, trace block, trace ID), and the
// hit's ClientKey still dedupes onto it after the restart.
func TestHitRecordReplaysToLiveGET(t *testing.T) {
	dir := t.TempDir()
	_, base, stop := startJournaled(t, dir, Options{Workers: 1})
	req := PlaceRequest{Trace: testTrace(t), Seed: 22, Iterations: 4000}
	_, id := submit(t, base, req)
	waitDone(t, base, id)

	req.ClientKey = "replayed-hit"
	tc := obs.DeriveTraceContext("test/hit-replay")
	js := submitTraced(t, base, req, tc)
	if !js.CacheHit || js.TraceID != tc.TraceID {
		t.Fatalf("hit answer: %+v", js)
	}
	want := getRaw(t, base, js.ID, "")
	stop()

	_, base2, _ := startJournaled(t, dir, Options{Workers: 1})
	if got := getRaw(t, base2, js.ID, ""); !bytes.Equal(got, want) {
		t.Errorf("replayed hit GET diverged:\n pre: %s\npost: %s", want, got)
	}
	resp, body := postJSON(t, base2+"/v1/place", req)
	var dup JobStatus
	if err := json.Unmarshal(body, &dup); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || dup.ID != js.ID {
		t.Errorf("ClientKey resubmission after replay: %d %s, want 200 with %s", resp.StatusCode, body, js.ID)
	}
}

// TestOldFormatHitPairReplays: a hit journaled the old way, as
// job.accept (with the trace) plus job.done with cache_hit, still
// replays to the job it was: done, cache_hit, the trace block parsed
// from the request, and the derived trace ID.
func TestOldFormatHitPairReplays(t *testing.T) {
	dir := t.TempDir()
	req := PlaceRequest{Trace: testTrace(t), Seed: 23, Iterations: 4000}
	res := &Result{Policy: PolicyAnneal, Placement: make([]int, 48), Cost: 99, BaselineCost: 100}
	for i := range res.Placement {
		res.Placement[i] = 47 - i
	}
	appendRaw(t, dir,
		journalRecord{T: recJobAccept, ID: "job-000004", Req: &req},
		journalRecord{T: recJobDone, ID: "job-000004", Result: res, CacheHit: true},
	)
	tr, err := trace.Decode(strings.NewReader(req.Trace))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(JobStatus{
		ID: "job-000004", Status: statusDone, Trace: traceInfo(tr), Result: res,
		CacheHit: true, TraceID: RequestTrace(req).TraceID,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, base, _ := startJournaled(t, dir, Options{Workers: 1})
	if got := bytes.TrimSpace(getRaw(t, base, "job-000004", "")); !bytes.Equal(got, want) {
		t.Errorf("old-format hit replayed as\n%s\nwant\n%s", got, want)
	}
}

// TestReplayParsesNoTraceForFinishedJob: a finished job whose job.accept
// carries its TraceInfo is rebuilt from the record alone. Its request's
// trace text is not a trace, so any parse would fail the job; without
// the TraceInfo the same journal does.
func TestReplayParsesNoTraceForFinishedJob(t *testing.T) {
	req := PlaceRequest{Trace: "not a trace", Seed: 24, Iterations: 4000}
	info := TraceInfo{Name: "forged", Accesses: 7, Items: 3}
	res := &Result{Policy: PolicyAnneal, Placement: []int{2, 0, 1}, Cost: 5, BaselineCost: 6}

	dir := t.TempDir()
	appendRaw(t, dir,
		journalRecord{T: recJobAccept, ID: "job-000001", Req: &req, Info: &info},
		journalRecord{T: recJobDone, ID: "job-000001", Result: res},
	)
	_, base, _ := startJournaled(t, dir, Options{Workers: 1})
	js := getJob(t, base, "job-000001")
	if js.Status != statusDone || js.Trace != info || js.Result == nil || js.Result.Cost != 5 {
		t.Errorf("finished job with TraceInfo replayed as %+v", js)
	}

	control := t.TempDir()
	appendRaw(t, control,
		journalRecord{T: recJobAccept, ID: "job-000001", Req: &req},
		journalRecord{T: recJobDone, ID: "job-000001", Result: res},
	)
	_, base2, _ := startJournaled(t, control, Options{Workers: 1})
	if js := getJob(t, base2, "job-000001"); js.Status != statusFailed {
		t.Errorf("control without TraceInfo replayed as %+v; the test shows nothing", js)
	}
}

// TestRecoveredJobResultIsCached: a job recovered from its job.accept
// runs with a store-only plan, so once it finishes the identical
// request is an exact cache hit with the same result bytes, and the
// recovery counts no warm start.
func TestRecoveredJobResultIsCached(t *testing.T) {
	dir := t.TempDir()
	req := PlaceRequest{Trace: testTrace(t), Seed: 25, Iterations: 4000}
	appendRaw(t, dir, journalRecord{T: recJobAccept, ID: "job-000001", Req: &req})
	warm0 := obsCacheWarmstarts.Value()

	_, base, _ := startJournaled(t, dir, Options{Workers: 1})
	recovered := waitDone(t, base, "job-000001")
	if recovered.Status != statusDone || recovered.CacheHit {
		t.Fatalf("recovered job: %+v", recovered)
	}
	if d := obsCacheWarmstarts.Value() - warm0; d != 0 {
		t.Errorf("recovery counted %d warm starts, want 0", d)
	}
	_, id := submit(t, base, req)
	hit := getJob(t, base, id)
	if !hit.CacheHit || hit.Status != statusDone {
		t.Fatalf("resubmission after recovery was not a cache hit: %+v", hit)
	}
	wb, _ := json.Marshal(recovered.Result)
	hb, _ := json.Marshal(hit.Result)
	if !bytes.Equal(wb, hb) {
		t.Errorf("cached result diverged from the recovered run:\n got %s\nwant %s", hb, wb)
	}
}

// TestReplayBuildsNoPlan: replay requeues a recovered cacheable job
// without a cache plan, so a restart with a backlog does no graph or
// Canon work before the HTTP surface exists; the worker builds the
// store-only plan when it runs the job (TestRecoveredJobResultIsCached).
// The server is assembled by hand so no worker can dequeue the job
// before the check.
func TestReplayBuildsNoPlan(t *testing.T) {
	dir := t.TempDir()
	req := PlaceRequest{Trace: testTrace(t), Seed: 25, Iterations: 4000}
	appendRaw(t, dir, journalRecord{T: recJobAccept, ID: "job-000001", Req: &req})
	jl, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	s := &Server{
		opts:    Options{Journal: jl},
		jobs:    make(map[string]*job),
		byKey:   make(map[string]string),
		streams: make(map[string]*stream),
		cache:   placecache.NewMemory(0),
	}
	requeue, err := s.recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(requeue) != 1 || !cacheable(requeue[0].req) {
		t.Fatalf("replay requeued %d jobs, want the one cacheable job", len(requeue))
	}
	if requeue[0].plan != nil {
		t.Error("replay built a cache plan; the worker should build it")
	}
}
