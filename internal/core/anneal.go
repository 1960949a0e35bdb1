package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Annealer instrumentation (see internal/obs): proposed iterations,
// accepted moves, chains run, how often a restart chain (index > 0)
// beat the primary chain, and chains cut short by cancellation. The
// proposal-delta histogram records the signed cost delta of every
// proposed swap (u ≠ v), so every downhill or neutral move lands in the
// ≤0 bucket and the other buckets hold the uphill moves the Metropolis
// test has to decide. Their shape relative to the temperature is what
// the cooling schedule acts on, so a drifting distribution explains a
// stalling anneal better than any total can.
var (
	obsIters       = obs.GetCounter("core.anneal.iterations")
	obsAccepted    = obs.GetCounter("core.anneal.accepted_moves")
	obsChains      = obs.GetCounter("core.anneal.chains")
	obsRestartWins = obs.GetCounter("core.anneal.restart_wins")
	obsInterrupted = obs.GetCounter("core.anneal.interrupted")
	obsDeltaHist   = obs.GetHistogram("core.anneal.proposal_delta",
		[]float64{0, 1, 4, 16, 64, 256, 1024, 4096, 16384, 65536})
)

// cancelCheckEvery is how many proposals a chain runs between
// context-cancellation checks. ctx.Err() is an atomic load, so the
// check is cheap, but batching it keeps it out of the per-swap path.
const cancelCheckEvery = 1024

// checkpointEvery is how many proposals a chain runs between
// Checkpoint and Progress calls.
const checkpointEvery = 4096

// AnnealOptions tunes simulated annealing.
type AnnealOptions struct {
	// Seed drives the move and acceptance randomness. With Restarts > 1
	// it also derives the per-restart seeds, so a given (Seed, Restarts)
	// pair is fully reproducible regardless of scheduling.
	Seed int64
	// Iterations is the total number of proposed swaps per chain; 0
	// selects 2000·n, which converges on all the evaluation workloads.
	Iterations int
	// InitialTemp is the starting temperature; 0 selects it
	// automatically from the mean |delta| of a random-move sample.
	InitialTemp float64
	// Cooling is the geometric cooling factor applied every n proposals;
	// 0 selects 0.97.
	Cooling float64
	// Restarts runs that many independent annealing chains concurrently
	// and keeps the best result, chosen deterministically by (cost,
	// restart index). Chain 0 uses Seed unchanged — so Restarts ≤ 1 is
	// byte-identical to a single plain run — and chain i > 0 anneals
	// with a seed derived from (Seed, i).
	Restarts int
	// Checkpoint, when non-nil, periodically receives a copy of the
	// best placement found so far and its cost, so a caller can persist
	// partial progress (the serving layer's crash/resume story). It is
	// invoked at most once per 4096 proposals per chain (the fixed
	// checkpointEvery cadence), and only when the best improved since
	// the last call. With Restarts > 1 the chains run concurrently, so
	// the callback must be safe for concurrent use and tolerate
	// out-of-order costs (keep the min).
	Checkpoint func(p layout.Placement, cost int64)
	// Progress, when non-nil, receives cumulative search statistics on
	// the same 4096-proposal cadence, improvement or not, and once more
	// when the chain finishes. Unlike Checkpoint it never copies the
	// placement, so it is cheap enough for live job introspection. It
	// observes the search without influencing it — no RNG draw, no
	// control flow depends on it. With Restarts > 1 it is called
	// concurrently from every chain; keep per-chain state keyed on Chain.
	Progress func(AnnealProgress)

	// chain is the restart index annealChain reports in spans and
	// Progress callbacks; AnnealContext sets it per restart.
	chain int
}

// AnnealProgress is a cumulative view of one annealing chain, delivered
// through AnnealOptions.Progress.
type AnnealProgress struct {
	// Chain is the restart index (0 for the primary chain).
	Chain int
	// Proposals and Accepted count the swaps proposed and accepted so
	// far in this chain; BestCost is the chain's best energy to date.
	Proposals int64
	Accepted  int64
	BestCost  int64
	// Done marks the final report of a finished (or interrupted) chain.
	Done bool
}

// Anneal refines a placement by simulated annealing over item swaps under
// the Linear objective. It returns the best placement visited and its
// cost. The input placement is not mutated. Anneal is AnnealContext with
// a background context.
func Anneal(g *graph.Graph, p layout.Placement, opts AnnealOptions) (layout.Placement, int64, error) {
	return AnnealContext(context.Background(), g, p, opts)
}

// AnnealContext is Anneal with cooperative cancellation. The context is
// checked between restart chains and every cancelCheckEvery proposals
// inside a chain. When ctx is cancelled (or its deadline passes) the
// search stops early and returns the best placement visited so far —
// a valid, never-worse-than-input placement — together with its cost
// and an error wrapping ctx.Err(). Callers that want the partial result
// must therefore check the returned placement before discarding on
// error: placement != nil with errors.Is(err, ctx.Err()) means
// "interrupted but usable".
func AnnealContext(ctx context.Context, g *graph.Graph, p layout.Placement, opts AnnealOptions) (layout.Placement, int64, error) {
	if opts.Restarts <= 1 {
		return annealChain(ctx, g, p, opts)
	}
	type outcome struct {
		p   layout.Placement
		c   int64
		err error
	}
	results := make([]outcome, opts.Restarts)
	var wg sync.WaitGroup
	for i := 0; i < opts.Restarts; i++ {
		wg.Add(1)
		//dwmlint:ignore barego restart chains are independent, write to index-i slots, and the winner is picked by (cost, index) — order-preserving by construction
		go func(i int) {
			defer wg.Done()
			chainOpts := opts
			chainOpts.Restarts = 0
			chainOpts.chain = i
			if i > 0 {
				chainOpts.Seed = stats.DeriveSeed(opts.Seed, i)
			}
			p, c, err := annealChain(ctx, g, p, chainOpts)
			results[i] = outcome{p: p, c: c, err: err}
		}(i)
	}
	wg.Wait()
	// Pick the winner among every chain that produced a placement.
	// Interrupted chains return valid partial placements alongside their
	// context error; only a chain with no placement at all is fatal.
	var best layout.Placement
	var bestCost int64
	var ctxErr error
	win := 0
	for i, r := range results {
		if r.err != nil && r.p == nil {
			return nil, 0, r.err
		}
		if r.err != nil && ctxErr == nil {
			ctxErr = r.err
		}
		if best == nil || r.c < bestCost {
			best, bestCost = r.p, r.c
			win = i
		}
	}
	if win > 0 {
		obsRestartWins.Inc()
	}
	return best, bestCost, ctxErr
}

// annealChain is one simulated-annealing run over g. On
// cancellation it returns the best-so-far placement together with an
// error wrapping ctx.Err().
func annealChain(ctx context.Context, g *graph.Graph, p layout.Placement, opts AnnealOptions) (layout.Placement, int64, error) {
	ctx, span := obs.StartSpan(ctx, "core.anneal.chain")
	defer span.End()
	span.SetAttr("chain", opts.chain).SetAttr("n", g.N())
	ev, err := cost.NewEvaluator(g, p)
	if err != nil {
		return nil, 0, fmt.Errorf("core: Anneal: %w", err)
	}
	n := g.N()
	if n < 2 {
		return ev.Placement(), ev.Cost(), nil
	}
	rng := newDrawSource(opts.Seed, n)
	iters := opts.Iterations
	if iters <= 0 {
		iters = 2000 * n
	}
	cooling := opts.Cooling
	if cooling <= 0 || cooling >= 1 {
		cooling = 0.97
	}
	temp := opts.InitialTemp
	if temp <= 0 {
		// Sample random swaps to scale the starting temperature so that
		// early uphill moves are accepted with fair probability.
		var sum float64
		samples := 50
		for i := 0; i < samples; i++ {
			u, v := rng.intn(), rng.intn()
			if u == v {
				continue
			}
			d := ev.SwapDelta(u, v)
			if d < 0 {
				d = -d
			}
			sum += float64(d)
		}
		temp = sum/float64(samples) + 1
	}
	best := ev.Placement()
	bestCost := ev.Cost()
	ckptCost := bestCost
	accepted := int64(0)           // batched into the shared counter after the loop
	deltas := obsDeltaHist.Local() // per-chain buffer, flushed once at finish
	report := func(done int, final bool) {
		if opts.Progress != nil {
			opts.Progress(AnnealProgress{
				Chain:     opts.chain,
				Proposals: int64(done),
				Accepted:  accepted,
				BestCost:  bestCost,
				Done:      final,
			})
		}
	}
	finish := func(done int, interrupted error) (layout.Placement, int64, error) {
		obsChains.Inc()
		obsIters.Add(int64(done))
		obsAccepted.Add(accepted)
		deltas.Flush()
		report(done, true)
		span.SetAttr("proposals", int64(done)).
			SetAttr("accepted", accepted).
			SetAttr("best_cost", bestCost).
			SetAttr("interrupted", interrupted != nil)
		if interrupted != nil {
			obsInterrupted.Inc()
			return best, bestCost, fmt.Errorf("core: anneal interrupted after %d/%d iterations: %w",
				done, iters, interrupted)
		}
		return best, bestCost, nil
	}
	if err := ctx.Err(); err != nil {
		return finish(0, err)
	}
	invTemp := 1 / temp // acceptUphill's bracket scale, refreshed on cooling
	// cool counts down the proposals of a block of n; it reads 0 after
	// the block's last one, when i%n == n-1. A u == v proposal uses up its
	// step but skips the cooling it would do (frozen schedule).
	cool := n
	for i := 0; i < iters; i++ {
		if i%cancelCheckEvery == cancelCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return finish(i, err)
			}
		}
		if i%checkpointEvery == checkpointEvery-1 {
			if opts.Checkpoint != nil && bestCost < ckptCost {
				ckptCost = bestCost
				opts.Checkpoint(best.Clone(), bestCost)
			}
			report(i+1, false)
		}
		if cool == 0 {
			cool = n
		}
		cool--
		u, v := rng.intn(), rng.intn()
		if u == v {
			continue
		}
		d := ev.SwapDelta(u, v)
		deltas.Observe(d)
		if d <= 0 || acceptUphill(rng.float64(), d, temp, invTemp) {
			ev.SwapKnown(u, v, d)
			accepted++
			if c := ev.Cost(); c < bestCost {
				bestCost = c
				best = ev.Placement()
			}
		}
		if cool == 0 {
			temp *= cooling
			if temp < 1e-6 {
				temp = 1e-6
			}
			invTemp = 1 / temp
		}
	}
	if opts.Checkpoint != nil && bestCost < ckptCost {
		opts.Checkpoint(best.Clone(), bestCost)
	}
	return finish(iters, nil)
}

// acceptGuard is the relative margin acceptUphill leaves around each
// Taylor bracket. The brackets are evaluated at d·invTemp rather than at
// the d/temp math.Exp sees, and with float64 rounding; for x < 746 both
// errors move e^-x by less than 1e-12 relative, so a decision taken
// outside the guarded band is the one math.Exp makes. Past x ≈ 745
// math.Exp returns 0 and rejects every u > 0, as the upper test does.
const acceptGuard = 1e-9

// acceptUphill is the Metropolis test for an uphill move, d > 0: it
// reports u < math.Exp(-float64(d)/temp) exactly, for every input, while
// evaluating math.Exp only when u falls inside a narrow band around it.
// With x = d/temp, the truncated Taylor series bracket e^-x for x >= 0:
//
//	1 - x + x²/2 - x³/6  <=  e^-x  <=  1 / (1 + x + x²/2 + x³/6)
//
// u below the lower bracket accepts, u at or above the upper bracket
// rejects (compared in multiply form, u·P(x) >= 1, with no division),
// and only the band between them pays for math.Exp: a few percent of
// u's range for x between 1 and 5, well under one percent below x = 0.3
// or above x = 10. Most proposals of a cooled chain are large uphill
// moves that the upper test rejects. The fallback call keeps the exact
// expression of the plain rule: a precomputed -1/temp can differ from
// -float64(d)/temp in the last bit.
//
// What the brackets cannot decide falls through to math.Exp: u == 0
// past x ≈ 1.6 (0·P(x) is 0, or NaN once P overflows) and a NaN
// temperature. The lower bracket turns negative past x ≈ 1.6; near that
// root the polynomial loses relative precision, but e^-x exceeds it
// there by x⁴e^-x/24 > 0.008, far more than its rounding error, so the
// lower test never accepts wrongly.
func acceptUphill(u float64, d int64, temp, invTemp float64) bool {
	x := float64(d) * invTemp
	if u*(1+x*(1+x*(0.5+x*(1.0/6)))) >= 1+acceptGuard {
		return false
	}
	if u < (1-x*(1-x*(0.5-x*(1.0/6))))*(1-acceptGuard) {
		return true
	}
	return u < math.Exp(-float64(d)/temp)
}
