package bench

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Runner instrumentation (see internal/obs): queue wait is the time an
// experiment spent submitted but not yet picked up by a worker, wall is
// the execution time of the Run call itself, both millisecond
// histograms.
var (
	obsQueueWaitMS = obs.GetHistogram("bench.runner.queue_wait_ms", obs.LatencyBoundsMS)
	obsExpWallMS   = obs.GetHistogram("bench.runner.experiment_wall_ms", obs.LatencyBoundsMS)
	obsExpOK       = obs.GetCounter("bench.runner.experiments_ok")
	obsExpFailed   = obs.GetCounter("bench.runner.experiments_failed")
	obsPanics      = obs.GetCounter("bench.runner.panics_recovered")
	obsTimeouts    = obs.GetCounter("bench.runner.timeouts")
	obsCanceled    = obs.GetCounter("bench.runner.canceled")
)

// RunResult is one executed experiment with its wall time, the unit the
// perf-trajectory report (BENCH_dwmbench.json) records.
type RunResult struct {
	// ID and Name identify the experiment.
	ID, Name string
	// Table is the experiment output; nil when Err is set.
	Table *Table
	// Elapsed is the wall time of the Run call (or of the wait until the
	// timeout/cancellation that aborted it).
	Elapsed time.Duration
	// Err is the failure of this experiment: a propagated Run error, a
	// recovered panic, a timeout, or the context's cancellation error.
	// Failures are isolated per experiment — one experiment failing does
	// not discard its siblings' results.
	Err error
	// CacheEnabled reports whether a placement cache was threaded into
	// this experiment; CacheHits/CacheMisses are the anneal-stage lookup
	// outcomes attributed to it (zero for experiments with no anneal
	// stage).
	CacheEnabled bool
	CacheHits    int64
	CacheMisses  int64
}

// countingCache wraps a PlacementCache with per-experiment hit/miss
// attribution. The process-wide obs counters aggregate across the whole
// run; the report wants each experiment's own outcome, and experiments
// run concurrently, so the wrapper counts with atomics local to one
// experiment execution.
type countingCache struct {
	inner        core.PlacementCache
	hits, misses atomic.Int64
}

func (cc *countingCache) Lookup(g *graph.Graph, start layout.Placement, opts core.AnnealOptions) (layout.Placement, int64, bool) {
	p, cost, ok := cc.inner.Lookup(g, start, opts)
	if ok {
		cc.hits.Add(1)
	} else {
		cc.misses.Add(1)
	}
	return p, cost, ok
}

func (cc *countingCache) Store(g *graph.Graph, start layout.Placement, opts core.AnnealOptions, best layout.Placement, cost int64) {
	cc.inner.Store(g, start, opts, best, cost)
}

// workers resolves the effective worker count.
func (cfg Config) workers() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// DeriveSeed maps (seed, expID, row) to an independent per-row RNG seed:
// seed ^ FNV-1a(expID, row), finalized with a splitmix64 mix so nearby
// rows land in unrelated streams. Experiments whose rows need their own
// randomness derive it through this function instead of sharing one
// sequential RNG, which is what makes row-parallel execution produce
// byte-identical tables for every worker count.
func DeriveSeed(seed int64, expID string, row int) int64 {
	h := fnv.New64a()
	h.Write([]byte(expID))
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(row >> (8 * i))
	}
	h.Write(buf[:])
	return int64(stats.Mix64(uint64(seed) ^ h.Sum64()))
}

// parMap runs n independent jobs on at most `workers` goroutines and
// returns their results in input order. Errors are reported
// deterministically: the error of the lowest-indexed failing job wins,
// regardless of completion order. With workers <= 1 the jobs run
// sequentially on the calling goroutine.
func parMap[T any](workers, n int, job func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			results[i], errs[i] = job(i)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					results[i], errs[i] = job(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// RunContext executes the experiments on a worker pool of cfg.Workers
// goroutines and returns one RunResult per experiment, in input order.
//
// Failures are isolated: a panic inside an experiment is recovered into
// that experiment's Err (with its stack), an experiment exceeding
// cfg.Timeout is marked with a timeout error, and an experiment Run
// error stays on its own result. The returned error is the Err of the
// lowest-indexed failing experiment (deterministic regardless of
// completion order), or nil when all succeeded; the slice always holds
// every completed experiment's table, so callers can report partial
// results after a failure.
//
// Cancelling ctx stops the runner promptly: experiments not yet started
// are marked with ctx's error, and in-flight experiments are abandoned
// (their goroutine finishes in the background and its result is
// discarded — experiments are pure, so this leaks only CPU, not state).
// The same abandonment applies to a per-experiment timeout.
func RunContext(ctx context.Context, cfg Config, exps ...Experiment) ([]RunResult, error) {
	submitted := time.Now()
	// Jobs never fail: each experiment's error stays on its RunResult.
	results, _ := parMap(cfg.workers(), len(exps), func(i int) (RunResult, error) {
		if err := ctx.Err(); err != nil {
			obsCanceled.Inc()
			return RunResult{ID: exps[i].ID, Name: exps[i].Name, Err: err}, nil
		}
		obsQueueWaitMS.Observe(time.Since(submitted).Milliseconds())
		return runOne(ctx, cfg, exps[i]), nil
	})
	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("%s: %w", results[i].ID, results[i].Err)
		}
	}
	return results, nil
}

// runOne executes a single experiment with panic recovery and the
// per-experiment timeout, charging its wall time to the runner histogram.
// The timeout is also threaded into the experiment's Config.Context, so
// cancellation-aware stages (core.AnnealContext) unwind promptly; the
// select below stays as the backstop for stages that never look at the
// context.
func runOne(ctx context.Context, cfg Config, e Experiment) RunResult {
	start := time.Now()
	ectx := ctx
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ectx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	// The experiment span parents every pipeline span below it (anneal
	// chains, sim runs, freezes) through the context the experiment
	// threads into its stages.
	sctx, span := obs.StartSpan(ectx, "bench.experiment")
	span.SetAttr("id", e.ID).SetAttr("name", e.Name)
	cfg.ctx = sctx
	var cc *countingCache
	if cfg.Cache != nil {
		cc = &countingCache{inner: cfg.Cache}
		cfg.Cache = cc
	}
	type outcome struct {
		tbl *Table
		err error
	}
	done := make(chan outcome, 1)
	//dwmlint:ignore ctxflow the experiment receives the context through cfg.ctx (set above from ectx); the select below is the backstop for stages that never look at it
	go func() {
		defer span.End()
		defer func() {
			if r := recover(); r != nil {
				obsPanics.Inc()
				span.SetAttr("panic", true)
				done <- outcome{err: fmt.Errorf("panic: %v\n%s", r, debug.Stack())}
			}
		}()
		tbl, err := e.Run(cfg)
		span.SetAttr("ok", err == nil)
		done <- outcome{tbl: tbl, err: err}
	}()
	var timeout <-chan time.Time
	if cfg.Timeout > 0 {
		timer := time.NewTimer(cfg.Timeout)
		defer timer.Stop()
		timeout = timer.C
	}
	res := RunResult{ID: e.ID, Name: e.Name}
	select {
	case o := <-done:
		res.Table, res.Err = o.tbl, o.err
	case <-ctx.Done():
		res.Err = ctx.Err()
		obsCanceled.Inc()
	case <-timeout:
		res.Err = fmt.Errorf("timed out after %v", cfg.Timeout)
		obsTimeouts.Inc()
	}
	res.Elapsed = time.Since(start)
	if cc != nil {
		// Atomic loads are safe even when the experiment goroutine was
		// abandoned on timeout/cancel and is still winding down.
		res.CacheEnabled = true
		res.CacheHits = cc.hits.Load()
		res.CacheMisses = cc.misses.Load()
	}
	obsExpWallMS.Observe(res.Elapsed.Milliseconds())
	if res.Err != nil {
		res.Table = nil
		obsExpFailed.Inc()
	} else {
		obsExpOK.Inc()
	}
	return res
}
