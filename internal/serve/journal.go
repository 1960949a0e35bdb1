package serve

// This file is the durability layer: the write-ahead journal record
// schema, the request-identity digest, and journal replay. Like job.go
// and stream.go it is pure — no clock reads, no goroutines; the
// handlers in server.go decide when to journal, this file decides what
// a record means.
//
// Schema and invariants (DESIGN.md §15):
//
//   - job.accept is journaled BEFORE the 202 leaves the server. An
//     acknowledged job therefore survives a crash; replay re-enqueues
//     it and the worker re-derives the result — byte-identical to an
//     uninterrupted run, because a job's result is a pure function of
//     its request and of the two starts admission resolved — the warm
//     candidate the cache planned and, for a resumed job, the
//     checkpoint it resumes from — which the record carries. The
//     journal never needs to capture search state. The record also
//     carries the job's TraceInfo, so replay parses the trace only for
//     a job it must re-run.
//   - job.hit is the one record of a job born finished from an exact
//     cache hit, journaled BEFORE the 202 like job.accept. It holds the
//     request without its trace text (ClientKey, Tenant, seed and
//     options stay), the traceparent, the TraceInfo and the result: a
//     finished job never re-runs, so its trace is dead weight. Journals
//     written before job.hit existed hold a hit as job.accept (full
//     trace) plus job.done with cache_hit set; both forms replay to the
//     same job.
//   - job.ckpt records the best-so-far placement on the checkpoint
//     cadence. It does not influence the recovered search (that would
//     break byte-identity); it pre-seeds the recovered job's best-so-
//     far, so a job cancelled right after recovery still returns at
//     least its pre-crash best.
//   - job.done / job.fail capture the terminal state so finished jobs
//     are served after a restart without re-running. The stored bytes
//     ARE the derived bytes — materialized determinism, same stance as
//     placecache.
//   - stream.create / stream.append are journaled BEFORE they are
//     applied to the session. A crash between journal and apply
//     re-applies on replay (at-least-once for unacknowledged work); an
//     append the session rejected live (400) is re-rejected identically
//     on replay and skipped. Replay order equals apply order because
//     the per-stream lock covers journal+apply as one critical section.
//   - stream.delete tombstones the stream: replay drops the session
//     entirely, including any append records a racing handler journaled
//     after the tombstone — a deleted stream can never come back as an
//     orphan.
//
// Unknown record types and undecodable payloads are counted and
// skipped, so a journal written by a newer build replays on an older
// one instead of wedging recovery.

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/wal"
)

// Journal record types.
const (
	recJobAccept     = "job.accept"
	recJobHit        = "job.hit"
	recJobCheckpoint = "job.ckpt"
	recJobDone       = "job.done"
	recJobFailed     = "job.fail"
	recStreamCreate  = "stream.create"
	recStreamAppend  = "stream.append"
	recStreamDelete  = "stream.delete"
)

// Replay-side metrics (the wal's own serve.wal.appends / append_errors
// / fsync_ms / torn_truncations / quarantines series are registered by
// the log itself under its metrics prefix).
var (
	obsReplayedJobs    = obs.GetCounter("serve.wal.replayed_jobs")
	obsReplayedStreams = obs.GetCounter("serve.wal.replayed_streams")
	obsRequeuedJobs    = obs.GetCounter("serve.wal.requeued_jobs")
	obsRecordSkips     = obs.GetCounter("serve.wal.record_skips")
)

// journalRecord is the JSON payload of one wal record. Exactly the
// fields for the record's type are populated.
type journalRecord struct {
	T  string `json:"t"`
	ID string `json:"id"`
	// job.accept / stream.create carry the full request, so replay can
	// re-derive everything else; job.hit carries it with Trace emptied.
	Req    *PlaceRequest  `json:"req,omitempty"`
	Stream *StreamRequest `json:"stream,omitempty"`
	// job.accept and job.hit also carry the job's trace context in
	// traceparent wire form, so a journal-recovered job keeps answering
	// polls with the trace ID the original caller is following. Older
	// journals lack the field; replay falls back to the deterministic
	// derivation (RequestTrace), which matches what an uninstrumented
	// caller got.
	Trace string `json:"trace,omitempty"`
	// job.accept and job.hit also carry the trace summary a GET reports.
	// Older journals lack it; replay then parses the request's trace.
	Info *TraceInfo `json:"info,omitempty"`
	// job.accept also carries the cache's near-hit warm candidate, in
	// the request's numbering, when admission planned one: whether the
	// anneal adopts it depends on the cache's contents at admission, not
	// on the request, so replay needs it to re-derive the same result.
	// Older journals lack the field; their jobs replay cold.
	Warm []int `json:"warm,omitempty"`
	// job.accept of a resumed job also carries the start it resumes
	// from: the checkpoint of the job its request names, which a
	// restarted server may no longer hold in that state. Older journals
	// lack the field; their resumed jobs replay from the policy's start.
	Resume []int `json:"resume,omitempty"`
	// job.ckpt carries the improved best-so-far.
	Placement []int `json:"placement,omitempty"`
	Cost      int64 `json:"cost,omitempty"`
	// job.hit / job.done / job.fail carry the terminal state. CacheHit
	// is set only on the job.done of an old-format hit.
	Result   *Result `json:"result,omitempty"`
	CacheHit bool    `json:"cache_hit,omitempty"`
	Err      string  `json:"err,omitempty"`
	// stream.append carries the batch.
	Accesses []int `json:"accesses,omitempty"`
}

// journal wraps the wal.Log with the record schema. A nil journal (no
// -journal flag) accepts every append as a no-op, so call sites stay
// unconditional.
type journal struct {
	log *wal.Log
}

// append marshals and commits one record, under a span so the WAL
// fsync shows up in the caller's trace (ctx carries the request's
// TraceContext; the span machinery is inert and clock reads stay inside
// internal/obs, so this file remains pure). Errors are returned for the
// caller to decide: acceptance paths refuse the request (durability
// unavailable = not accepted), completion paths degrade (the work is
// done; replay will re-derive it).
func (jl *journal) append(ctx context.Context, rec journalRecord) error {
	if jl == nil || jl.log == nil {
		return nil
	}
	_, span := obs.StartSpan(ctx, "serve.wal.append")
	defer span.End()
	span.SetAttr("type", rec.T).SetAttr("id", rec.ID)
	payload, err := json.Marshal(rec)
	if err != nil {
		span.SetAttr("failed", true)
		return fmt.Errorf("journal: marshal %s: %w", rec.T, err)
	}
	if err := jl.log.Append(payload); err != nil {
		span.SetAttr("failed", true)
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// RequestKey returns the deterministic identity of a placement request:
// a digest over every field that determines the result. Two requests
// with equal keys are the same computation, so the key doubles as the
// idempotency token (PlaceRequest.ClientKey) and as the seed for the
// 429 Retry-After jitter.
func RequestKey(req PlaceRequest) string {
	return fmt.Sprintf("%016x", requestDigest(req))
}

// RequestTrace derives the deterministic TraceContext for a request
// that arrived without a traceparent header: a pure function of the
// request's identity key, so the same request always carries the same
// trace ID — an idempotent resubmission, a journal-replayed recovery,
// and the client-side load generator all compute the identical ID
// without coordinating. The serve client uses the same derivation when
// it injects the header, so client- and server-side spans of one
// request agree even before the first response round-trips.
func RequestTrace(req PlaceRequest) obs.TraceContext {
	return obs.DeriveTraceContext("place/" + RequestKey(req))
}

// requestDigest is RequestKey's raw form: FNV-64a over the identity
// fields with length framing, so field boundaries cannot alias.
func requestDigest(req PlaceRequest) uint64 {
	h := fnv.New64a()
	field := func(s string) {
		fmt.Fprintf(h, "%d:", len(s))
		h.Write([]byte(s))
	}
	field(req.Trace)
	field(req.Policy)
	field(strconv.FormatInt(req.Seed, 10))
	field(strconv.Itoa(req.Iterations))
	field(strconv.Itoa(req.Restarts))
	field(strconv.FormatInt(req.DeadlineMS, 10))
	field(req.Resume)
	return h.Sum64()
}

// recoveredJob is one job reconstructed from the journal.
type recoveredJob struct {
	id       string
	req      PlaceRequest
	trace    string     // traceparent wire form from job.accept/job.hit, may be empty
	info     *TraceInfo // trace summary from job.accept/job.hit, nil in older journals
	warm     []int      // near-hit warm candidate from job.accept, may be nil
	resume   []int      // resumed job's start from job.accept, may be nil
	ckpt     []int
	ckptCost int64
	result   *Result
	cacheHit bool
	errMsg   string
}

// traceContext resolves the recovered job's trace identity: the
// journaled traceparent when present and well-formed, else the
// deterministic derivation from the request.
func (r *recoveredJob) traceContext() obs.TraceContext {
	if tc, ok := obs.ParseTraceParent(r.trace); ok {
		return tc
	}
	return RequestTrace(r.req)
}

// terminal reports whether the job reached a journaled end state.
func (r *recoveredJob) terminal() bool { return r.result != nil || r.errMsg != "" }

// recoveredStream is one streaming session reconstructed from the
// journal: its create request plus every journaled batch, in journal
// (= apply) order.
type recoveredStream struct {
	id      string
	req     StreamRequest
	appends [][]int
	deleted bool
}

// replayState is everything the journal knows, in arrival order.
type replayState struct {
	jobs        map[string]*recoveredJob
	jobOrder    []string
	streams     map[string]*recoveredStream
	streamOrder []string
	// maxJobSeq / maxStreamSeq resume the ID counters past every ID the
	// journal has ever issued, so recovered and fresh jobs never collide.
	maxJobSeq    int64
	maxStreamSeq int64
}

// idSeq extracts the numeric suffix of "job-000042" / "stream-000007"
// style IDs; 0 for foreign formats.
func idSeq(id string) int64 {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.ParseInt(id[i+1:], 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// replayJournal folds every committed record into a replayState.
// Individual records never abort the replay — a record that does not
// decode or references an unknown job is counted and skipped — but a
// storage-level replay error is returned (the journal itself is
// unreadable, which Open's repair should have prevented).
func replayJournal(log *wal.Log) (*replayState, error) {
	st := &replayState{
		jobs:    make(map[string]*recoveredJob),
		streams: make(map[string]*recoveredStream),
	}
	err := log.Replay(func(payload []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			obsRecordSkips.Inc()
			return nil
		}
		st.apply(rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// apply folds one record into the state.
func (st *replayState) apply(rec journalRecord) {
	switch rec.T {
	case recJobAccept, recJobHit:
		if rec.Req == nil || rec.ID == "" || (rec.T == recJobHit && (rec.Result == nil || rec.Info == nil)) {
			obsRecordSkips.Inc()
			return
		}
		if _, ok := st.jobs[rec.ID]; ok {
			obsRecordSkips.Inc()
			return
		}
		r := &recoveredJob{id: rec.ID, req: *rec.Req, trace: rec.Trace, info: rec.Info, warm: rec.Warm, resume: rec.Resume}
		if rec.T == recJobHit {
			r.result, r.cacheHit = rec.Result, true
		}
		st.jobs[rec.ID] = r
		st.jobOrder = append(st.jobOrder, rec.ID)
		if n := idSeq(rec.ID); n > st.maxJobSeq {
			st.maxJobSeq = n
		}
	case recJobCheckpoint:
		r, ok := st.jobs[rec.ID]
		if !ok || rec.Placement == nil {
			obsRecordSkips.Inc()
			return
		}
		if r.ckpt == nil || rec.Cost < r.ckptCost {
			r.ckpt, r.ckptCost = rec.Placement, rec.Cost
		}
	case recJobDone:
		r, ok := st.jobs[rec.ID]
		if !ok || rec.Result == nil {
			obsRecordSkips.Inc()
			return
		}
		r.result, r.cacheHit, r.errMsg = rec.Result, rec.CacheHit, ""
	case recJobFailed:
		r, ok := st.jobs[rec.ID]
		if !ok || rec.Err == "" {
			obsRecordSkips.Inc()
			return
		}
		r.errMsg, r.result = rec.Err, nil
	case recStreamCreate:
		if rec.Stream == nil || rec.ID == "" {
			obsRecordSkips.Inc()
			return
		}
		if _, ok := st.streams[rec.ID]; ok {
			obsRecordSkips.Inc()
			return
		}
		st.streams[rec.ID] = &recoveredStream{id: rec.ID, req: *rec.Stream}
		st.streamOrder = append(st.streamOrder, rec.ID)
		if n := idSeq(rec.ID); n > st.maxStreamSeq {
			st.maxStreamSeq = n
		}
	case recStreamAppend:
		r, ok := st.streams[rec.ID]
		if !ok || r.deleted || len(rec.Accesses) == 0 {
			// Appends racing a delete land after the tombstone; they are
			// dropped here so a deleted stream can never be resurrected.
			obsRecordSkips.Inc()
			return
		}
		r.appends = append(r.appends, rec.Accesses)
	case recStreamDelete:
		r, ok := st.streams[rec.ID]
		if !ok {
			obsRecordSkips.Inc()
			return
		}
		r.deleted = true
	default:
		obsRecordSkips.Inc()
	}
}
