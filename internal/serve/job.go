// Package serve is the placement service behind cmd/dwmserved: an
// HTTP/JSON front end that turns trace uploads into placement jobs and
// runs them on a bounded, panic-isolated worker pool.
//
// The design goals, in order:
//
//   - Determinism. A job's result is a pure function of its request —
//     the effective annealing seed is derived from (request seed, trace
//     identity) with stats.DeriveNamedSeed, never from worker identity or
//     scheduling — so two identical submissions return byte-identical
//     placements no matter which worker picks them up.
//   - Backpressure. The job queue is bounded; a submission that does
//     not fit is rejected immediately with 429 and a Retry-After hint
//     instead of growing an unbounded backlog. A job that was accepted
//     is never dropped: shutdown drains the queue before the process
//     exits.
//   - Graceful degradation. Jobs checkpoint their best-so-far placement
//     while annealing. A job cut short — per-request deadline, client
//     cancellation, shutdown — returns the checkpoint as a valid
//     partial result (marked "partial": true) instead of nothing, and a
//     later submission can resume from it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

// PolicyAnneal is the default (and only cancellable) policy: the
// proposed multi-start pipeline refined by simulated annealing.
const PolicyAnneal = "anneal"

// PlaceRequest is the body of POST /v1/place.
type PlaceRequest struct {
	// Trace is the access trace in the dwmtrace text format.
	Trace string `json:"trace"`
	// Policy selects the placement strategy; empty selects "anneal".
	// Any name from the core policy set is accepted, but only the
	// anneal family supports deadlines, checkpointing, and resume (the
	// constructive policies run to completion in milliseconds).
	Policy string `json:"policy,omitempty"`
	// Seed drives every randomized component. Equal requests with equal
	// seeds produce byte-identical placements.
	Seed int64 `json:"seed,omitempty"`
	// Iterations and Restarts tune the annealing stage; zero selects
	// the defaults (see core.AnnealOptions).
	Iterations int `json:"iterations,omitempty"`
	Restarts   int `json:"restarts,omitempty"`
	// DeadlineMS bounds the job's execution wall time in milliseconds;
	// 0 selects the server default. A job that hits its deadline
	// returns its best-so-far placement marked partial.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Resume names an earlier job whose checkpoint seeds this job's
	// search, so a cancelled or deadline-cut job can be continued.
	Resume string `json:"resume,omitempty"`
	// ClientKey, when set, makes the submission idempotent: a second
	// request carrying the same key returns the first request's job
	// instead of minting a duplicate. The key survives journal replay,
	// so resubmission after a server crash is safe too. RequestKey
	// derives the canonical key from the request's identity fields; any
	// opaque client-chosen token also works. ClientKey is not part of
	// the request's identity — it never influences the placement.
	ClientKey string `json:"client_key,omitempty"`
	// Tenant attributes the request to a caller for the per-tenant
	// labeled metrics (serve.tenant.*). Like ClientKey it is pure
	// attribution: it is excluded from the request's identity digest and
	// never influences the placement, so two tenants submitting the same
	// request share one computation.
	Tenant string `json:"tenant,omitempty"`
}

// TraceInfo summarizes the uploaded trace in job responses.
type TraceInfo struct {
	Name     string `json:"name"`
	Accesses int    `json:"accesses"`
	Items    int    `json:"items"`
}

// Result is the payload of a finished job.
type Result struct {
	Policy string `json:"policy"`
	// Placement maps item ID to tape slot (compact, [0, items)).
	Placement []int `json:"placement"`
	// Cost is the Linear objective of Placement; BaselineCost is the
	// same objective for the program-order baseline placement.
	Cost         int64 `json:"cost"`
	BaselineCost int64 `json:"baseline_cost"`
	// Partial marks a result produced by a job that was cut short
	// (deadline, cancellation, shutdown): the placement is valid and
	// never worse than the baseline, but the search did not finish.
	Partial bool `json:"partial"`
}

// JobStatus is the body of GET /v1/jobs/{id}.
type JobStatus struct {
	ID        string       `json:"id"`
	Status    string       `json:"status"` // queued | running | done | failed
	Trace     TraceInfo    `json:"trace"`
	Result    *Result      `json:"result,omitempty"`
	Error     string       `json:"error,omitempty"`
	ElapsedMS int64        `json:"elapsed_ms,omitempty"`
	Progress  *JobProgress `json:"progress,omitempty"`
	// CacheHit marks a job served straight from the placement cache:
	// the result was memoized from an earlier structurally identical
	// request and the worker pool never ran. It sits outside Result so
	// duplicate submissions stay byte-identical on the result payload.
	CacheHit bool `json:"cache_hit,omitempty"`
	// TraceID is the job's cross-process trace: the trace ID from the
	// caller's traceparent header, or the deterministic derivation from
	// the request identity when the caller sent none (see RequestTrace).
	// It survives journal replay, so a recovered job still answers polls
	// with the trace the original caller is following in /debug/events.
	TraceID string `json:"trace_id,omitempty"`
}

// JobProgress is the live view of a running annealing job, fed by the
// annealer's Progress hook on the checkpoint cadence. It is observational
// only — polling it never perturbs the search (see AnnealOptions.Progress).
type JobProgress struct {
	// BestCost is the lowest energy any chain has reached so far.
	BestCost int64 `json:"best_cost"`
	// Proposals and Accepted are summed across all restart chains.
	Proposals int64 `json:"proposals"`
	Accepted  int64 `json:"accepted"`
	// Chains is the number of chains that have reported at least once.
	Chains int `json:"chains"`
	// CheckpointAgeMS is the time since the last checkpointed
	// improvement, or -1 when no checkpoint exists yet. A large age on a
	// long-running job means the search has plateaued.
	CheckpointAgeMS int64 `json:"checkpoint_age_ms"`
}

// Job lifecycle states.
const (
	statusQueued  = "queued"
	statusRunning = "running"
	statusDone    = "done"
	statusFailed  = "failed"
)

// job is the registered record of one accepted placement request. It
// keeps only what GET /v1/jobs/{id} and a resume read; the inputs a run
// consumes travel in its task, so a finished job holds neither the
// trace nor the cache plan.
type job struct {
	id       string
	tc       obs.TraceContext // the job's trace identity, set at acceptance
	info     TraceInfo        // the trace summary, set at acceptance
	cacheHit bool             // born finished from a cache hit (see cache.go)

	// done is closed once the job is terminal (see finish in runJob).
	// It is set at construction and never reassigned, so waiters read it
	// without the lock.
	done chan struct{}

	mu        sync.Mutex
	status    string                      //dwmlint:guard mu
	result    *Result                     //dwmlint:guard mu
	errMsg    string                      //dwmlint:guard mu
	elapsedMS int64                       //dwmlint:guard mu
	canceled  bool                        //dwmlint:guard mu
	cancel    context.CancelFunc          //dwmlint:guard mu
	ckpt      layout.Placement            //dwmlint:guard mu — dropped once result is set
	ckptCost  int64                       //dwmlint:guard mu
	ckptAt    time.Time                   //dwmlint:guard mu
	prog      map[int]core.AnnealProgress //dwmlint:guard mu
}

// task is one run of a queued job: the job plus the inputs runJob
// consumes. Only the queue and the worker running it hold a task, so
// the request (trace text included), the parsed trace and the cache
// plan become garbage once the run returns. Cache hits never build one.
type task struct {
	j      *job
	req    PlaceRequest
	tr     *trace.Trace
	resume layout.Placement // optional starting placement from a resumed job
	// plan carries the pre-built graph, canonical form and store key of
	// a cacheable job (store-only for a recovered one, built in runJob); nil
	// for other jobs.
	plan *cachePlan
	// warm is the near-hit warm candidate: the plan's at admission, the
	// journaled one on recovery. Nil runs from the policy's own start.
	warm     layout.Placement
	enqueued time.Time // set at admission, read for the queue-wait histogram
}

// traceInfo summarizes a parsed trace for job responses.
func traceInfo(tr *trace.Trace) TraceInfo {
	return TraceInfo{Name: tr.Name, Accesses: tr.Len(), Items: tr.NumItems}
}

// closedCh is the completion channel of jobs that are born terminal:
// cache hits and replayed finished jobs.
var closedCh = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// recordCheckpoint keeps the lowest-cost placement seen so far and
// reports whether this call improved it (the journal hook in runJob
// writes a job.ckpt record exactly for improvements). It is the
// Checkpoint callback handed to the annealer, which may invoke it
// concurrently from restart chains. The caller supplies now — this file
// stays clock-free so job state remains a pure function of its inputs.
func (j *job) recordCheckpoint(p layout.Placement, c int64, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ckpt == nil || c < j.ckptCost {
		j.ckpt, j.ckptCost = p, c
		j.ckptAt = now
		return true
	}
	return false
}

// recordProgress stores the latest cumulative report from one annealing
// chain. Reports carry cumulative (not incremental) totals, so keeping
// only the newest per chain and summing across chains never double
// counts, regardless of interleaving.
func (j *job) recordProgress(pr core.AnnealProgress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.prog == nil {
		j.prog = make(map[int]core.AnnealProgress)
	}
	j.prog[pr.Chain] = pr
}

// best returns the job's best known placement — the final result when
// finished, else the latest checkpoint — or nil when nothing has been
// computed yet.
func (j *job) best() (layout.Placement, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result != nil && j.result.Placement != nil {
		return append(layout.Placement(nil), j.result.Placement...), true
	}
	if j.ckpt != nil {
		return j.ckpt.Clone(), true
	}
	return nil, false
}

// snapshot renders the job's externally visible state. now anchors the
// checkpoint-age computation (the caller reads the clock; this file does
// not). The progress block appears once any chain has reported and is
// kept on finished jobs so a client polling after completion still sees
// the final search totals.
func (j *job) snapshot(now time.Time) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		Status:    j.status,
		Trace:     j.info,
		Result:    j.result,
		Error:     j.errMsg,
		ElapsedMS: j.elapsedMS,
		CacheHit:  j.cacheHit,
		TraceID:   j.tc.TraceID,
	}
	if len(j.prog) > 0 {
		p := &JobProgress{CheckpointAgeMS: -1}
		first := true
		for _, pr := range j.prog {
			p.Proposals += pr.Proposals
			p.Accepted += pr.Accepted
			if first || pr.BestCost < p.BestCost {
				p.BestCost = pr.BestCost
				first = false
			}
			p.Chains++
		}
		if !j.ckptAt.IsZero() {
			p.CheckpointAgeMS = now.Sub(j.ckptAt).Milliseconds()
		}
		st.Progress = p
	}
	return st
}

// requestCancel cancels a running job, or marks a queued one so it
// yields its seed placement as a partial result the moment a worker
// picks it up.
func (j *job) requestCancel() {
	j.mu.Lock()
	cancel := j.cancel
	j.canceled = true
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// parseTrace decodes and validates the request's embedded trace.
func parseTrace(req PlaceRequest) (*trace.Trace, error) {
	if strings.TrimSpace(req.Trace) == "" {
		return nil, fmt.Errorf("missing trace")
	}
	tr, err := trace.Decode(strings.NewReader(req.Trace))
	if err != nil {
		return nil, err
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("trace has no accesses")
	}
	// Reject item spaces beyond maxItems here, at the HTTP boundary, so
	// an oversized upload is a 400 before the graph build allocates rows
	// for every declared item.
	if tr.NumItems > maxItems {
		return nil, fmt.Errorf("trace declares %d items; the service supports at most %d", tr.NumItems, maxItems)
	}
	return tr, nil
}

// validPolicy reports whether the request's policy name is servable.
func validPolicy(name string) bool {
	if name == "" || name == PolicyAnneal {
		return true
	}
	for _, n := range core.PolicyNames() {
		if n == name {
			return true
		}
	}
	return false
}

// effectiveSeed derives the seed the job's randomized stages use. It is
// a pure function of the request — seed and trace identity — so results
// are byte-identical regardless of which worker runs the job, while the
// splitmix finalizer in stats.DeriveNamedSeed decorrelates service streams
// from the CLI/benchmark streams that share the same user seed.
func effectiveSeed(req PlaceRequest, tr *trace.Trace) int64 {
	return stats.DeriveNamedSeed(req.Seed, "serve/"+tr.Name, tr.Len())
}

// baselineCost is a Result's BaselineCost: the Linear cost, on g, of the
// trace's program-order placement.
func baselineCost(tr *trace.Trace, g *graph.Graph) (int64, error) {
	base, err := core.ProgramOrder(tr)
	if err != nil {
		return 0, err
	}
	return cost.Linear(g, base)
}

// execute computes the job's placement. It is a pure function of
// (request, resume placement, warm placement); ctx cuts the annealing
// stage short, in which case the best-so-far placement comes back
// marked Partial. g, when non-nil, is the trace's pre-built transition
// graph (the cache planner already paid for it); warm, when non-nil,
// is a cached near-match that seeds the anneal if it beats the proposed
// start; warmApplied (optional) fires exactly when that adoption happens,
// so warm-start accounting reflects applications rather than lookups. The
// checkpoint callback receives best-so-far placements as the search
// progresses, and progress (optional) receives cumulative search
// statistics for live introspection; both must be safe for concurrent
// use, and none of the callbacks influences the search.
func execute(ctx context.Context, req PlaceRequest, tr *trace.Trace, g *graph.Graph, resume, warm layout.Placement, warmApplied func(), checkpoint func(layout.Placement, int64), progress func(core.AnnealProgress)) (*Result, error) {
	if g == nil {
		built, err := graph.FromTrace(tr)
		if err != nil {
			return nil, err
		}
		g = built
	}
	baseCost, err := baselineCost(tr, g)
	if err != nil {
		return nil, err
	}
	seed := effectiveSeed(req, tr)

	policy := req.Policy
	if policy == "" {
		policy = PolicyAnneal
	}
	if policy != PolicyAnneal {
		pol, err := core.PolicyByName(policy, seed)
		if err != nil {
			return nil, err
		}
		p, err := pol.Place(tr, g)
		if err != nil {
			return nil, err
		}
		c, err := cost.Linear(g, p)
		if err != nil {
			return nil, err
		}
		return &Result{Policy: policy, Placement: p, Cost: c, BaselineCost: baseCost}, nil
	}

	// Anneal path: start from the resumed checkpoint when one was
	// supplied, else from the proposed pipeline (which seeds with
	// program order, so the start — and therefore every best-so-far
	// checkpoint — is never worse than the baseline).
	start := resume
	if start == nil {
		p, _, err := core.Propose(tr, g)
		if err != nil {
			return nil, err
		}
		start = p
	}
	startCost, err := cost.Linear(g, start)
	if err != nil {
		return nil, err
	}
	// Adopt a cached warm start only when it strictly beats the start we
	// would otherwise use: the start (and so every checkpoint) stays
	// never-worse-than-baseline, and a useless near-match changes nothing.
	if resume == nil && warm != nil {
		if wc, err := cost.Linear(g, warm); err == nil && wc < startCost {
			start, startCost = warm, wc
			if warmApplied != nil {
				warmApplied()
			}
		}
	}
	// Record the starting point immediately: even a job cancelled
	// before its first annealing checkpoint has a valid best-so-far.
	checkpoint(start.Clone(), startCost)

	p, c, err := core.AnnealContext(ctx, g, start, core.AnnealOptions{
		Seed:       seed,
		Iterations: req.Iterations,
		Restarts:   req.Restarts,
		Checkpoint: checkpoint,
		Progress:   progress,
	})
	if err != nil {
		if p != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return &Result{Policy: policy, Placement: p, Cost: c, BaselineCost: baseCost, Partial: true}, nil
		}
		return nil, err
	}
	return &Result{Policy: policy, Placement: p, Cost: c, BaselineCost: baseCost}, nil
}
