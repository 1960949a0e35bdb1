package serve

// This file is the impure half of the service: the bounded queue, the
// worker pool, the HTTP surface, and graceful shutdown. It is the
// package's only file that reads the wall clock or launches goroutines;
// both dwmlint exemptions (walltime, barego) are granted to this file
// alone via the analyzer allowlists, mirroring bench/runner.go. The
// worker pool preserves the determinism contract the same way parMap
// does: workers are interchangeable consumers of a channel, and every
// job's result is a pure function of its request (see job.go), so
// scheduling never influences a placement.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/placecache"
	"repro/internal/wal"
)

// Service instrumentation (see internal/obs), exposed over GET /metrics
// in the Prometheus text format. Job queue wait and run time are
// millisecond histograms.
var (
	obsAccepted    = obs.GetCounter("serve.jobs.accepted")
	obsRejected    = obs.GetCounter("serve.jobs.rejected")
	obsDone        = obs.GetCounter("serve.jobs.done")
	obsFailed      = obs.GetCounter("serve.jobs.failed")
	obsPartial     = obs.GetCounter("serve.jobs.partial")
	obsPanics      = obs.GetCounter("serve.panics_recovered")
	obsQueueDepth  = obs.GetGauge("serve.queue.depth")
	obsRunning     = obs.GetGauge("serve.jobs.running")
	obsQueueWaitMS = obs.GetHistogram("serve.job.queue_wait_ms", obs.LatencyBoundsMS)
	obsJobWallMS   = obs.GetHistogram("serve.job.wall_ms", obs.LatencyBoundsMS)
	// Placement-cache outcomes at the service boundary: hits served
	// without running a worker, misses that went to the pool, and misses
	// that at least warm-started from a structural near-match. The
	// cache's own internals (evictions, bytes, persistence) live under
	// the placecache.* series.
	obsCacheHits       = obs.GetCounter("serve.cache.hits")
	obsCacheMisses     = obs.GetCounter("serve.cache.misses")
	obsCacheWarmstarts = obs.GetCounter("serve.cache.warmstarts")
	// Streaming-session surface: sessions created and closed, append
	// batches and the accesses they carried, and the append-latency
	// distribution (which includes any improvement rounds the batch
	// crossed — the any-time engine runs them inline with ingest).
	obsStreamsCreated = obs.GetCounter("serve.stream.created")
	obsStreamsClosed  = obs.GetCounter("serve.stream.closed")
	obsStreamsLive    = obs.GetGauge("serve.stream.live")
	obsStreamAppends  = obs.GetCounter("serve.stream.appends")
	obsStreamAccesses = obs.GetCounter("serve.stream.accesses")
	obsStreamAppendMS = obs.GetHistogram("serve.stream.append_ms", obs.LatencyBoundsMS)
	// Per-tenant attribution (DESIGN.md §16). The label sets are small
	// and bounded: tenant comes from PlaceRequest.Tenant through
	// tenantLabel (normalized, vec-capped with overflow collapsing into
	// "_other"), policy through policyLabel (the validated policy set),
	// and outcome is a closed enum of the handlePlace exits. The wall_ms
	// histogram records each job's trace ID as a bucket exemplar, so a
	// slow tenant's latency bucket links straight to a drainable trace in
	// /debug/events.
	obsTenantRequests = obs.GetCounterVec("serve.tenant.requests",
		[]string{"tenant", "policy", "outcome"})
	obsTenantWallMS = obs.GetHistogramVec("serve.tenant.wall_ms",
		[]string{"tenant"}, obs.LatencyBoundsMS)
)

// Outcome label values for serve.tenant.requests — a closed set, one
// per handlePlace exit.
const (
	outcomeAccepted    = "accepted"
	outcomeCacheHit    = "cache_hit"
	outcomeDeduped     = "deduped"
	outcomeInvalid     = "invalid"
	outcomeRejected    = "rejected"
	outcomeUnavailable = "unavailable"
)

// tenantLabel normalizes a request's tenant for the labeled series:
// empty means "default", and anything longer than 64 bytes is truncated
// at the last rune boundary at or below 64 bytes, so the label stays
// valid UTF-8 (the vec's cardinality cap bounds the series count either
// way; this just keeps individual label values scrape-friendly).
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "default"
	}
	if len(tenant) > 64 {
		cut := 64
		for cut > 0 && !utf8.RuneStart(tenant[cut]) {
			cut--
		}
		return tenant[:cut]
	}
	return tenant
}

// policyLabel normalizes a request's policy for the labeled series:
// empty selects the default policy name, and an unknown (rejected)
// policy collapses into the overflow value so a hostile policy string
// can never mint a series.
func policyLabel(policy string) string {
	if policy == "" {
		return PolicyAnneal
	}
	if !validPolicy(policy) {
		return obs.OverflowLabel
	}
	return policy
}

// countRequest stamps one request outcome on the per-tenant series.
func countRequest(req PlaceRequest, outcome string) {
	obsTenantRequests.With(tenantLabel(req.Tenant), policyLabel(req.Policy), outcome).Inc()
}

// retryAfterSeconds is the base of the Retry-After hint on a 429; the
// response adds identity-hash jitter in [0, retryAfterSeconds].
const retryAfterSeconds = 1

// Options configures a Server. The zero value selects the defaults.
type Options struct {
	// QueueCap bounds the number of accepted-but-not-yet-running jobs;
	// a submission that does not fit is rejected with 429 and a
	// Retry-After hint. 0 selects 16.
	QueueCap int
	// Workers is the size of the job worker pool; 0 selects 2.
	Workers int
	// DefaultDeadline bounds a job's execution wall time when the
	// request does not set deadline_ms; 0 means no default limit.
	DefaultDeadline time.Duration
	// MaxDeadline caps the per-request deadline; 0 means no cap.
	MaxDeadline time.Duration
	// EventBuffer, when positive, enables the process-wide span tracer
	// with a ring of that many spans, drained over GET /debug/events.
	// Zero leaves tracing in whatever state the process already has
	// (disabled unless something else enabled it).
	EventBuffer int
	// Cache is the placement cache the service consults for anneal
	// requests (see cache.go). Nil selects a fresh in-memory cache with
	// the default bound; supply one to control sizing or persistence.
	Cache *placecache.Cache
	// DisableCache turns content-addressed serving off entirely: every
	// request runs on the worker pool, as before the cache existed.
	DisableCache bool
	// Journal, when non-nil, makes accepted work durable: job
	// acceptances, checkpoints, terminal results, and stream batches are
	// committed to this write-ahead log before the client sees a
	// success, and New replays the log to rebuild state after a crash
	// (DESIGN.md §15). The caller owns the log's lifecycle (cmd/dwmserved
	// opens it from -journal and closes it after shutdown). Nil keeps
	// the service purely in-memory, exactly as before.
	Journal *wal.Log
}

func (o Options) queueCap() int {
	if o.QueueCap > 0 {
		return o.QueueCap
	}
	return 16
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return 2
}

// deadlineFor resolves a request's effective execution deadline.
func (o Options) deadlineFor(req PlaceRequest) time.Duration {
	d := time.Duration(req.DeadlineMS) * time.Millisecond
	if d <= 0 {
		d = o.DefaultDeadline
	}
	if o.MaxDeadline > 0 && (d <= 0 || d > o.MaxDeadline) {
		d = o.MaxDeadline
	}
	return d
}

// Server is the placement service: a bounded job queue, a fixed worker
// pool, and the HTTP handlers of cmd/dwmserved.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	httpSrv *http.Server
	cache   *placecache.Cache // nil when Options.DisableCache
	jl      *journal          // nil-safe wrapper around Options.Journal

	mu        sync.Mutex
	jobs      map[string]*job   //dwmlint:guard mu
	byKey     map[string]string //dwmlint:guard mu — ClientKey → job ID, first wins
	queue     chan *task        // channel ops self-synchronize; mu only guards replacing it
	accepting bool              //dwmlint:guard mu
	isReady   bool              //dwmlint:guard mu
	nextID    int64             //dwmlint:guard mu
	wg        sync.WaitGroup    // worker pool

	// Streaming sessions (see stream.go). Appends run inline in the
	// handler — bounded improvement rounds, no worker pool — so shutdown
	// only has to stop admitting new appends; in-flight ones finish under
	// the HTTP server's own drain.
	streams      map[string]*stream //dwmlint:guard mu
	nextStreamID int64              //dwmlint:guard mu
}

// New builds a Server, replays its journal (when Options.Journal is
// set), and starts the worker pool. Callers must eventually call
// Shutdown to drain the pool, even when Serve is never invoked (tests
// driving the handlers directly). The only error source is journal
// replay; a journal-less New cannot fail.
func New(opts Options) (*Server, error) {
	s := &Server{
		opts:      opts,
		mux:       http.NewServeMux(),
		jobs:      make(map[string]*job),
		byKey:     make(map[string]string),
		accepting: true,
		isReady:   true,
		streams:   make(map[string]*stream),
		jl:        &journal{log: opts.Journal},
	}
	if !opts.DisableCache {
		s.cache = opts.Cache
		if s.cache == nil {
			s.cache = placecache.NewMemory(0)
		}
	}
	// Recover journaled state before the queue channel exists: the
	// channel is sized to hold every unfinished recovered job on top of
	// the configured capacity, so requeueing can never block or deadlock
	// against a pool that is not running yet.
	var requeue []*task
	if opts.Journal != nil {
		var err error
		requeue, err = s.recover()
		if err != nil {
			return nil, err
		}
	}
	qcap := opts.queueCap()
	if len(requeue) > qcap {
		qcap = len(requeue)
	}
	s.queue = make(chan *task, qcap)
	for _, t := range requeue {
		// Depth accounting is symmetric with handlePlace: increment
		// strictly before the send, decrement at the dequeue in runJob, so
		// the gauge can never go transiently negative.
		obsQueueDepth.Add(1)
		s.queue <- t
		obsRequeuedJobs.Inc()
	}
	s.mux.HandleFunc("POST /v1/place", s.handlePlace)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/streams", s.handleStreamCreate)
	s.mux.HandleFunc("POST /v1/streams/{id}/append", s.handleStreamAppend)
	s.mux.HandleFunc("GET /v1/streams/{id}", s.handleStream)
	s.mux.HandleFunc("DELETE /v1/streams/{id}", s.handleStreamDelete)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.Default().Snapshot().WriteProm(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if opts.EventBuffer > 0 {
		obs.EnableTracing(opts.EventBuffer)
	}
	s.mux.HandleFunc("GET /debug/events", handleEvents)
	// Standard pprof surface, reachable with `go tool pprof` against a
	// live service. Registered on the explicit paths (not a prefix
	// wildcard) so the mux's method-aware patterns above stay unambiguous.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.httpSrv = &http.Server{Handler: s.mux}
	for i := 0; i < opts.workers(); i++ {
		s.wg.Add(1)
		//dwmlint:ignore barego worker pool goroutines mirror parMap: interchangeable consumers of one channel, results are pure functions of the job request, and Shutdown closes the channel and waits on the WaitGroup
		go s.worker()
	}
	return s, nil
}

// recover rebuilds jobs and streams from the journal and returns the
// unfinished jobs to requeue, oldest first. It runs before the worker
// pool or HTTP surface exists; it still takes s.mu around the registry
// mutations to keep the lock discipline uniform (uncontended here).
//
// Terminal jobs come back exactly as journaled: their results were
// derived once and the stored bytes are served as-is. Their trace is
// parsed only to fill the job's TraceInfo; neither the trace nor the
// request text is kept. Unfinished jobs are re-run from the request and
// the warm candidate their job.accept journaled, with no cache plan:
// that pair is all a job's result depends on, so re-deriving makes the
// recovered placement byte-identical to an uninterrupted run. A
// candidate that is not a placement of the trace's items is dropped
// (the job replays cold). Journaled checkpoints only pre-seed the
// recovered job's best-so-far, so cancelling right after recovery
// still returns the pre-crash best.
func (s *Server) recover() ([]*task, error) {
	st, err := replayJournal(s.opts.Journal)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var requeue []*task
	for _, id := range st.jobOrder {
		rec := st.jobs[id]
		j := &job{id: id, tc: rec.traceContext(), done: closedCh}
		tr, terr := parseTrace(rec.req)
		if terr == nil {
			j.info = traceInfo(tr)
		}
		switch {
		case terr != nil:
			// The trace was valid when accepted (acceptance journals after
			// validation), so this means the limits tightened across the
			// restart. Surface it as a failed job rather than wedging replay.
			j.status = statusFailed
			j.errMsg = "journal replay: " + terr.Error()
		case rec.terminal() && rec.errMsg != "":
			j.status = statusFailed
			j.errMsg = rec.errMsg
		case rec.terminal():
			j.status = statusDone
			j.result = rec.result
			j.cacheHit = rec.cacheHit
		default:
			j.status = statusQueued
			j.done = make(chan struct{})
			if rec.ckpt != nil {
				j.ckpt = layout.Placement(rec.ckpt)
				j.ckptCost = rec.ckptCost
			}
			t := &task{j: j, req: rec.req, tr: tr, enqueued: now}
			if warm := layout.Placement(rec.warm); warm != nil && warm.Validate(tr.NumItems) == nil {
				t.warm = warm
			}
			requeue = append(requeue, t)
		}
		s.jobs[id] = j
		if k := rec.req.ClientKey; k != "" {
			if _, dup := s.byKey[k]; !dup {
				s.byKey[k] = id
			}
		}
		obsReplayedJobs.Inc()
	}
	for _, id := range st.streamOrder {
		rec := st.streams[id]
		if rec.deleted {
			// Tombstoned: the stream (and every journaled batch, including
			// any that raced the delete) stays gone.
			continue
		}
		sst, serr := newStream(id, rec.req)
		if serr != nil {
			obsRecordSkips.Inc()
			continue
		}
		for _, acc := range rec.appends {
			// Re-apply in journal order. A batch the session rejected live
			// was answered 400 and never entered the session; the session
			// re-rejects it identically here (validation is deterministic),
			// so skipping on error reproduces the live state.
			//dwmlint:ignore ctxflow replay runs before the HTTP surface exists; there is no request context to inherit
			_ = sst.sess.Append(context.Background(), acc)
		}
		s.streams[id] = sst
		obsStreamsLive.Add(1)
		obsReplayedStreams.Inc()
	}
	s.nextID = st.maxJobSeq
	s.nextStreamID = st.maxStreamSeq
	return requeue, nil
}

// Handler returns the service's HTTP handler, for tests and embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown completes. A graceful
// shutdown returns nil.
func (s *Server) Serve(ln net.Listener) error {
	err := s.httpSrv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains the service: readiness flips to 503 immediately, new
// submissions are refused, queued and in-flight jobs run to completion
// (an accepted job is never dropped), and the HTTP listener closes once
// the pool is idle. ctx bounds the wait; on expiry the remaining jobs
// are cancelled — they unwind at their next cancellation check and
// finish with their best-so-far placement marked partial — and ctx's
// error is returned to signal the blown budget.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.isReady = false
	if s.accepting {
		s.accepting = false
		close(s.queue)
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	//dwmlint:ignore barego shutdown helper: signals worker-pool drain completion so the wait can race the caller's deadline; no result state escapes it
	//dwmlint:ignore ctxflow wg.Wait cannot be interrupted by design — the caller's ctx bounds the wait via the select below, and accepted jobs must finish (accepted-work-is-never-dropped)
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var drainErr error
	select {
	case <-drained:
	case <-ctx.Done():
		drainErr = ctx.Err()
		// Budget blown: cut every remaining job short. Running jobs
		// unwind within one cancellation-check interval; still-queued
		// jobs yield their starting placement the moment a worker pops
		// them. Both finish as valid partials, so the drain below is
		// bounded even though the budget is spent.
		s.mu.Lock()
		for _, j := range s.jobs {
			j.requestCancel()
		}
		s.mu.Unlock()
		<-drained
	}
	if err := s.httpSrv.Shutdown(ctx); err != nil && drainErr == nil {
		drainErr = err
	}
	return drainErr
}

// handleReady is the readiness probe: 200 while accepting work, 503
// from the instant shutdown begins.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ready := s.isReady
	s.mu.Unlock()
	if !ready {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// eventsResponse is the body of GET /debug/events.
type eventsResponse struct {
	// Enabled reports whether the span tracer is on (Options.EventBuffer
	// or an explicit obs.EnableTracing).
	Enabled bool `json:"enabled"`
	// Dropped counts spans overwritten in the ring since the last drain
	// — the exact number of spans this response is missing, so a scraper
	// can tell a quiet server from an undersized ring.
	Dropped int64 `json:"dropped"`
	// Spans are the buffered span records, sorted by (trace, start
	// sequence): all spans of one trace are contiguous, ordered by when
	// they started (a span's ID is its start sequence), with untraced
	// spans first under the empty trace. Draining empties the ring —
	// each span is delivered to exactly one caller.
	Spans []obs.SpanRecord `json:"spans"`
}

// handleEvents drains the process-wide span ring as JSON. The response
// contract: it is a consuming read (two concurrent scrapers split the
// stream between them; each span is delivered exactly once), spans come
// back grouped by trace in start order, and Dropped is the exact count
// of spans overwritten since the previous drain.
func handleEvents(w http.ResponseWriter, _ *http.Request) {
	spans, dropped := obs.DrainSpans()
	if spans == nil {
		spans = []obs.SpanRecord{}
	}
	obs.SortSpans(spans)
	writeJSON(w, http.StatusOK, eventsResponse{
		Enabled: obs.TracingEnabled(),
		Dropped: dropped,
		Spans:   spans,
	})
}

// traceRequestContext returns the request's context extended with the
// caller's traceparent header, when one is present and well-formed —
// the extraction half of cross-process propagation. Handlers that mint
// jobs derive a fallback trace from the request identity instead (see
// handlePlace); for everything else an absent header simply means the
// spans stay untraced.
func traceRequestContext(r *http.Request) context.Context {
	tc, ok := obs.ParseTraceParent(r.Header.Get("traceparent"))
	if !ok {
		return r.Context()
	}
	return obs.ContextWithTrace(r.Context(), tc)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// handlePlace accepts a placement job: 202 with the job ID on success,
// 400 on invalid input, 429 with Retry-After when the queue is full,
// 503 once shutdown has begun.
func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	var req PlaceRequest
	body := http.MaxBytesReader(w, r.Body, 64<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		countRequest(req, outcomeInvalid)
		writeJSON(w, http.StatusBadRequest, apiError{Error: "invalid request body: " + err.Error()})
		return
	}
	tr, err := parseTrace(req)
	if err != nil {
		countRequest(req, outcomeInvalid)
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	if !validPolicy(req.Policy) {
		countRequest(req, outcomeInvalid)
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("unknown policy %q", req.Policy)})
		return
	}
	// Adopt the caller's trace when the request carries a traceparent
	// header; otherwise derive it from the request identity, so every
	// job has a trace ID and an uninstrumented caller still gets the
	// same ID the serve client would have injected. rctx threads the
	// trace through the acceptance path (journal spans nest under it).
	tc, ok := obs.ParseTraceParent(r.Header.Get("traceparent"))
	if !ok {
		tc = RequestTrace(req)
	}
	rctx := obs.ContextWithTrace(r.Context(), tc)
	var resume []int
	if req.Resume != "" {
		prev, ok := s.lookup(req.Resume)
		if !ok {
			countRequest(req, outcomeInvalid)
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("resume: unknown job %q", req.Resume)})
			return
		}
		best, ok := prev.best()
		if !ok {
			countRequest(req, outcomeInvalid)
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("resume: job %q has no checkpoint yet", req.Resume)})
			return
		}
		if len(best) != tr.NumItems {
			countRequest(req, outcomeInvalid)
			writeJSON(w, http.StatusBadRequest, apiError{
				Error: fmt.Sprintf("resume: job %q covers %d items, trace has %d", req.Resume, len(best), tr.NumItems)})
			return
		}
		resume = best
	}

	// Consult the placement cache for anneal requests. A planning error
	// is not fatal — the job simply runs cold, exactly as with the cache
	// disabled (a malformed trace still fails inside execute).
	var plan *cachePlan
	if s.cache != nil && cacheable(req) {
		if p, err := planCache(s.cache, req, tr); err == nil {
			plan = p
		}
	}
	var hit *Result
	if plan != nil {
		hit = plan.hit
	}
	j := &job{tc: tc, info: traceInfo(tr)}
	var t *task
	if hit != nil {
		// Exact hit: the job is born finished and never touches the
		// worker pool. It is still registered and journaled, so GET
		// /v1/jobs/{id} and a restart treat it like any finished job.
		j.status, j.result, j.cacheHit, j.done = statusDone, hit, true, closedCh
	} else {
		j.status, j.done = statusQueued, make(chan struct{})
		t = &task{j: j, req: req, tr: tr, resume: resume, plan: plan}
		if plan != nil {
			t.warm = plan.warm
		}
	}
	owner, outcome, err := s.admit(rctx, &req, j, t, hit)
	// A miss is counted here; a warm start is NOT — a near-match found by
	// the planner only becomes a warm start if execute adopts it over the
	// policy's own start, and the accounting lives at that point of
	// application (see runJob's warmApplied closure). A resubmission
	// answered by the job that owns its ClientKey is neither.
	if plan != nil && hit == nil && outcome != outcomeDeduped {
		obsCacheMisses.Inc()
	}
	countRequest(req, outcome)
	switch outcome {
	case outcomeDeduped:
		obsDeduped.Inc()
		writeJSON(w, http.StatusOK, owner.snapshot(time.Now()))
	case outcomeUnavailable:
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	case outcomeRejected:
		obsRejected.Inc()
		// Retry-After carries deterministic jitter derived from the
		// request's identity hash: a thundering herd of distinct retriers
		// spreads out, while any given request always hears the same
		// hint (pinned by TestRetryAfterJitterDeterministic).
		retry := retryAfterSeconds + int(requestDigest(req)%(retryAfterSeconds+1))
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retry))
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
	case outcomeCacheHit:
		obsAccepted.Inc()
		obsDone.Inc()
		obsCacheHits.Inc()
		writeJSON(w, http.StatusAccepted, j.snapshot(time.Now()))
	default:
		obsAccepted.Inc()
		writeJSON(w, http.StatusAccepted, JobStatus{
			ID:      j.id,
			Status:  statusQueued,
			Trace:   j.info,
			TraceID: tc.TraceID,
		})
	}
}

// admit is the one acceptance step of a validated submission. It holds
// s.mu throughout and, in order:
//
//  1. answers a request whose ClientKey already owns a job with that job
//     (idempotent resubmission: first wins, whether the owner was
//     accepted in this process's lifetime or rebuilt from the journal);
//  2. refuses once shutdown has begun;
//  3. refuses a queued job when the queue is at its cap;
//  4. mints the job's ID;
//  5. journals the acceptance — and, for a job born finished from a
//     cache hit, its completion — so the job is durable before the 202
//     leaves the server;
//  6. enqueues a queued job's task;
//  7. registers the job and its ClientKey.
//
// req is the validated request and j the job minted for it. Exactly one
// of t and hit is set: t is the run of a job that goes to the queue,
// hit the result of a job born finished from a cache hit. admit returns
// the job that answers the request (j, or the owner of req's ClientKey),
// the outcome label, and the refusal as an error. A refused submission
// leaves no state behind; a journal refusal skips the minted ID.
func (s *Server) admit(ctx context.Context, req *PlaceRequest, j *job, t *task, hit *Result) (*job, string, error) {
	key := req.ClientKey
	s.mu.Lock()
	defer s.mu.Unlock()
	if key != "" {
		if id, dup := s.byKey[key]; dup {
			return s.jobs[id], outcomeDeduped, nil
		}
	}
	if !s.accepting {
		return nil, outcomeUnavailable, errors.New("server is shutting down")
	}
	// Admission is a length check, not a channel select: sends happen
	// only under s.mu and receives only shrink the queue, so the check
	// cannot race another producer, and the send below can never block.
	// (The channel's capacity may exceed QueueCap after a replay that
	// recovered more jobs than the cap; admission still gates on the
	// configured cap.)
	if hit == nil && len(s.queue) >= s.opts.queueCap() {
		return nil, outcomeRejected, fmt.Errorf("queue full (%d jobs); retry later", s.opts.queueCap())
	}
	s.nextID++
	j.id = fmt.Sprintf("job-%06d", s.nextID)
	// Journaling under s.mu keeps journal order consistent with ID
	// order, so replay rebuilds the same sequence. If the journal is
	// unavailable the job is not accepted — durability was the promise
	// the 202 would have made.
	recs := []journalRecord{{T: recJobAccept, ID: j.id, Req: req, Trace: j.tc.TraceParent()}}
	if t != nil {
		recs[0].Warm = t.warm
	}
	if hit != nil {
		recs = append(recs, journalRecord{T: recJobDone, ID: j.id, Result: hit, CacheHit: true})
	}
	for _, rec := range recs {
		if err := s.jl.append(ctx, rec); err != nil {
			return nil, outcomeUnavailable, fmt.Errorf("journal unavailable: %w", err)
		}
	}
	outcome := outcomeCacheHit
	if hit == nil {
		outcome = outcomeAccepted
		// Queue-depth accounting is symmetric by construction: the gauge
		// is incremented under s.mu strictly before the send, and
		// decremented by the worker at the dequeue — so a worker that
		// pops the job the instant it lands can never observe (or
		// produce) a negative depth.
		obsQueueDepth.Add(1)
		t.enqueued = time.Now()
		s.queue <- t
	}
	s.jobs[j.id] = j
	if key != "" {
		s.byKey[key] = j.id
	}
	return j, outcome, nil
}

// lookup finds a job by ID.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// maxJobWait caps how long one GET /v1/jobs/{id}?wait= blocks; a
// longer wait is clamped to it.
const maxJobWait = time.Minute

// handleJob reports a job's status and, when finished, its result.
// With ?wait=DUR (a Go duration, clamped to maxJobWait) it long-polls:
// the response is held until the job is terminal, the wait expires, or
// the request's context ends, and then carries the same snapshot a
// plain GET would. Shutdown ends every wait too: the drain finishes
// every accepted job, which wakes its waiters, before the listener
// closes. A bad or negative wait is a 400.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	waited := q.Has("wait")
	var wait time.Duration
	if waited {
		d, err := time.ParseDuration(q.Get("wait"))
		if err != nil || d < 0 {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("invalid wait %q: want a non-negative duration such as 10s", q.Get("wait"))})
			return
		}
		wait = min(d, maxJobWait)
	}
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	if waited {
		t := time.NewTimer(wait)
		select {
		case <-j.done:
		case <-t.C:
		case <-r.Context().Done():
		}
		t.Stop()
	}
	writeJSON(w, http.StatusOK, j.snapshot(time.Now()))
}

// handleCancel cancels a job. A running job unwinds at its next
// cancellation check and completes with its best-so-far placement
// marked partial; a queued job yields its starting placement the moment
// a worker picks it up. Either way the accepted job still produces a
// valid result.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusAccepted, j.snapshot(time.Now()))
}

// handleStreamCreate opens a streaming placement session: 201 with the
// initial status on success, 400 on an invalid item count, 503 once
// shutdown has begun.
func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	var req StreamRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "invalid request body: " + err.Error()})
		return
	}
	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "server is shutting down"})
		return
	}
	s.nextStreamID++
	id := fmt.Sprintf("stream-%06d", s.nextStreamID)
	st, err := newStream(id, req)
	if err != nil {
		s.mu.Unlock()
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	// Journal the creation before the stream becomes visible: a 201 is a
	// durability promise, same as a job's 202.
	if err := s.jl.append(traceRequestContext(r), journalRecord{T: recStreamCreate, ID: id, Stream: &req}); err != nil {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "journal unavailable: " + err.Error()})
		return
	}
	s.streams[id] = st
	s.mu.Unlock()
	obsStreamsCreated.Inc()
	obsStreamsLive.Add(1)
	writeJSON(w, http.StatusCreated, st.status())
}

// lookupStream finds a stream by ID.
func (s *Server) lookupStream(id string) (*stream, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.streams[id]
	return st, ok
}

// handleStreamAppend feeds accesses into a session and returns the
// resulting status: 200 on success, 400 on an out-of-range access, 404
// for an unknown stream, 503 once shutdown has begun. The append — and
// any improvement rounds whose boundaries it crosses — runs inline, so a
// successful response already reflects the appended accesses.
func (s *Server) handleStreamAppend(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookupStream(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such stream"})
		return
	}
	s.mu.Lock()
	accepting := s.accepting
	s.mu.Unlock()
	if !accepting {
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "server is shutting down"})
		return
	}
	var req StreamAppendRequest
	body := http.MaxBytesReader(w, r.Body, 64<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "invalid request body: " + err.Error()})
		return
	}
	start := time.Now()
	sctx, span := obs.StartSpan(traceRequestContext(r), "serve.stream.append")
	defer span.End()
	span.SetAttr("stream", st.id).SetAttr("accesses", len(req.Accesses))
	// Journal-then-apply, both under the stream's own lock: the journal's
	// record order is exactly the session's apply order, which is what
	// lets replay rebuild the session byte-identically. A journal failure
	// is a clean 503 — nothing was applied, the client can retry. A batch
	// the session rejects was journaled but is harmless: replay re-rejects
	// it identically (session validation is deterministic).
	st.mu.Lock()
	if err := s.jl.append(sctx, journalRecord{T: recStreamAppend, ID: st.id, Accesses: req.Accesses}); err != nil {
		st.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "journal unavailable: " + err.Error()})
		return
	}
	// The session runs under a background context: an append is bounded
	// work (at most a handful of fixed-budget rounds), and once admitted
	// it completes even if the client goes away — the same accepted-work-
	// is-never-dropped stance the job queue takes, and a prerequisite for
	// the determinism contract (a half-applied append is not replayable).
	// Only the cancellation chain is severed: the trace context rides
	// along so the session's improvement-round spans stay in the caller's
	// trace.
	//dwmlint:ignore ctxflow deliberate severing: an admitted append must complete even if the client disconnects, or a half-applied append would make the stream unreplayable
	actx := context.Background()
	if tc, ok := obs.TraceFromContext(sctx); ok {
		actx = obs.ContextWithTrace(actx, tc)
	}
	err := st.sess.Append(actx, req.Accesses)
	st.mu.Unlock()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	obsStreamAppends.Inc()
	obsStreamAccesses.Add(int64(len(req.Accesses)))
	obsStreamAppendMS.Observe(time.Since(start).Milliseconds())
	writeJSON(w, http.StatusOK, st.status())
}

// handleStream reports a stream's current placement, cost, and counters.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookupStream(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such stream"})
		return
	}
	writeJSON(w, http.StatusOK, st.status())
}

// handleStreamDelete closes a stream and returns its final status. The
// session holds no external resources, so deletion is just registry
// removal; in-flight appends on the same stream finish normally against
// the session they already hold.
func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	st, ok := s.streams[id]
	if ok {
		// Tombstone before removal: once the delete record is durable, no
		// replay can resurrect the stream — not even from append records a
		// concurrent handler journals after this point (replay drops
		// everything past the tombstone). If the tombstone cannot be
		// written the stream stays registered, so journal and registry
		// never disagree.
		if err := s.jl.append(traceRequestContext(r), journalRecord{T: recStreamDelete, ID: id}); err != nil {
			s.mu.Unlock()
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "journal unavailable: " + err.Error()})
			return
		}
		delete(s.streams, id)
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such stream"})
		return
	}
	obsStreamsClosed.Inc()
	obsStreamsLive.Add(-1)
	writeJSON(w, http.StatusOK, st.status())
}

// worker consumes jobs until the queue closes at shutdown, draining
// whatever was accepted.
func (s *Server) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		s.runJob(t)
	}
}

// runJob executes one job's task with panic isolation: a panic inside
// the placement pipeline fails that job (with its stack) and the worker
// survives to serve the next one — the bench.RunContext recovery
// pattern. The task's inputs are read here and nowhere else, so they
// are garbage once runJob returns.
func (s *Server) runJob(t *task) {
	j := t.j
	obsQueueDepth.Add(-1)
	start := time.Now()

	// The job runs detached from the submitting request's lifetime (the
	// 202 already went out), but inside its trace: the job's TraceContext
	// re-enters the context here, so the run span — and through it the
	// anneal chain spans and journal appends — lands in the caller's
	// trace, journal replay included (j.tc survives recovery).
	base := obs.ContextWithTrace(context.Background(), j.tc)
	var cancels []context.CancelFunc
	if d := s.opts.deadlineFor(t.req); d > 0 {
		ctx, cancel := context.WithTimeout(base, d)
		base, cancels = ctx, append(cancels, cancel)
	}
	ctx, cancel := context.WithCancel(base)
	cancels = append(cancels, cancel)
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	obsQueueWaitMS.Observe(start.Sub(t.enqueued).Milliseconds())
	ctx, span := obs.StartSpan(ctx, "serve.job.run")
	defer span.End()
	span.SetAttr("id", j.id).SetAttr("trace", j.info.Name)
	j.mu.Lock()
	j.status = statusRunning
	j.cancel = cancel
	if j.canceled {
		cancel()
	}
	j.mu.Unlock()
	obsRunning.Add(1)
	defer obsRunning.Add(-1)

	finish := func(res *Result, errMsg string) {
		elapsed := time.Since(start)
		obsJobWallMS.Observe(elapsed.Milliseconds())
		// The per-tenant latency series records the job's trace ID as a
		// bucket exemplar: the /metrics scrape links a slow bucket to a
		// concrete drainable trace.
		obsTenantWallMS.With(tenantLabel(t.req.Tenant)).ObserveTrace(elapsed.Milliseconds(), j.tc.TraceID)
		span.SetAttr("failed", errMsg != "")
		j.mu.Lock()
		j.elapsedMS = elapsed.Milliseconds()
		j.cancel = nil
		if errMsg != "" {
			j.status = statusFailed
			j.errMsg = errMsg
			obsFailed.Inc()
		} else {
			// The result supersedes the checkpoint (best reads it first).
			j.status, j.result, j.ckpt = statusDone, res, nil
			obsDone.Inc()
			if res.Partial {
				obsPartial.Inc()
			}
		}
		// Closing under j.mu, in the step that sets the terminal status,
		// means a woken waiter sees what a plain GET would. finish runs a
		// second time only when the journal append below panics.
		select {
		case <-j.done:
		default:
			close(j.done)
		}
		j.mu.Unlock()
		// Journal the terminal state. Failure here degrades rather than
		// fails the job — the work is already done and acknowledged via
		// GET; a crash before the record lands just means replay re-derives
		// the same bytes the hard way.
		if errMsg != "" {
			_ = s.jl.append(ctx, journalRecord{T: recJobFailed, ID: j.id, Err: errMsg})
		} else {
			_ = s.jl.append(ctx, journalRecord{T: recJobDone, ID: j.id, Result: res})
		}
	}

	defer func() {
		if r := recover(); r != nil {
			obsPanics.Inc()
			finish(nil, fmt.Sprintf("panic: %v\n%s", r, debug.Stack()))
		}
	}()

	// The checkpoint closure stamps the wall clock here — job.go is
	// clock-free by design (see the walltime analyzer allowlist). Each
	// improvement is journaled so a recovered job starts with the
	// pre-crash best-so-far already in hand; the wal serializes the
	// concurrent chains' appends.
	checkpoint := func(p layout.Placement, c int64) {
		if j.recordCheckpoint(p, c, time.Now()) {
			_ = s.jl.append(ctx, journalRecord{T: recJobCheckpoint, ID: j.id, Placement: p, Cost: c})
		}
	}
	// Warm-start accounting fires only when execute actually adopts the
	// cached near-match (it must beat the policy's own start): both the
	// service counter and the cache's own warm-hit stat measure
	// applications, not lookups. A recovered job re-applies a journaled
	// candidate without consulting the cache, so it is not counted.
	var prebuiltGraph *graph.Graph
	var warmApplied func()
	if t.plan != nil {
		prebuiltGraph = t.plan.g
		warmApplied = func() {
			obsCacheWarmstarts.Inc()
			if s.cache != nil {
				s.cache.NoteWarmApplied()
			}
		}
	}
	res, err := execute(ctx, t.req, t.tr, prebuiltGraph, t.resume, t.warm, warmApplied, checkpoint, j.recordProgress)
	if err != nil {
		finish(nil, err.Error())
		return
	}
	// Memoize the result before finishing: full runs only (a partial is
	// not the key's answer), and only for planned (cacheable) jobs. A
	// caller woken by the job's completion may resubmit at once, and that
	// resubmission must hit. Put is first-wins, so concurrent duplicates
	// cannot flap the stored bytes.
	if t.plan != nil && !res.Partial && s.cache != nil {
		s.cache.Put(t.plan.key, storeEntry(t.plan.canon, res))
	}
	finish(res, "")
}
