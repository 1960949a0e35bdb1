package serve

// This file is the service's placement-cache integration: pure planning
// logic (no clock, no goroutines — the dwmlint exemptions stay confined
// to server.go). A request whose effective policy is the anneal family
// and that does not resume an earlier job is content-addressed by the
// canonical fingerprint of its access-transition graph:
//
//   - Exact hit: a stored entry under the same (fingerprint, seed,
//     iterations, restarts) key is decanonicalized into the request's
//     numbering and served as a completed job without touching the
//     worker pool. For an identical request this replays the byte-exact
//     result the cold path produced (the entry was stored from exactly
//     that computation); for a renumbered twin it returns the stored
//     solution transported onto the request's numbering — a valid
//     placement with the same objective value, served at cache speed.
//   - Near hit: no exact entry, but one with the same degree-profile
//     signature and item count exists. Its placement replaces the
//     proposed start as the anneal's start placement when it beats it,
//     shrinking time-to-good-cost without changing the result's
//     contract.
//
// Resume requests bypass the cache entirely (their start placement is
// job-local state, not a function of the request), and partial results
// are never stored.

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/placecache"
	"repro/internal/trace"
)

// serveDevice is the cache key's device/objective descriptor: the
// service optimizes the single-tape Linear shift objective.
const serveDevice = "linear"

// servePolicyKey namespaces the service's entries so they never collide
// with core-level adapter entries for the same graph.
const servePolicyKey = "serve.anneal"

// cachePlan is the outcome of consulting the cache for one request. The
// graph and canonical form are always populated (the job reuses them),
// and exactly one of {hit, miss} applies: a non-nil hit carries the
// finished result; otherwise storeKey names where the job's eventual
// result belongs and warm optionally seeds the search.
type cachePlan struct {
	g     *graph.Graph
	canon *graph.Canonical
	key   placecache.Key
	hit   *Result
	warm  layout.Placement
}

// cacheable reports whether a request participates in the cache: the
// anneal policy (the only one whose cost justifies memoization and whose
// inputs the key covers), and no resume.
func cacheable(req PlaceRequest) bool {
	return (req.Policy == "" || req.Policy == PolicyAnneal) && req.Resume == ""
}

// planCache builds the request's graph, canonicalizes it, and consults
// the cache. The returned plan always carries the graph so the job
// avoids a second FromTrace.
func planCache(cache *placecache.Cache, req PlaceRequest, tr *trace.Trace) (*cachePlan, error) {
	g, err := graph.FromTrace(tr)
	if err != nil {
		return nil, err
	}
	cn := g.Canon()
	plan := &cachePlan{
		g:     g,
		canon: cn,
		key: placecache.Key{
			FP:         cn.FP,
			Policy:     servePolicyKey,
			Device:     serveDevice,
			Seed:       effectiveSeed(req, tr),
			Iterations: req.Iterations,
			Restarts:   req.Restarts,
		},
	}
	if e, ok := cache.Get(plan.key); ok && len(e.Placement) == tr.NumItems {
		p := placecache.Decanonize(e.Placement, cn.Labeling)
		res, err := mintResult(tr, g, p)
		if err == nil {
			plan.hit = res
			return plan, nil
		}
		// An unusable entry (objective evaluation failed) degrades to a
		// miss; the job recomputes and overwrites nothing (first-wins).
	}
	if _, e, ok := cache.Nearest(cn.Profile, tr.NumItems); ok {
		plan.warm = placecache.Decanonize(e.Placement, cn.Labeling)
	}
	return plan, nil
}

// mintResult assembles a completed Result for a cached placement, with
// every cost recomputed in the request's own numbering: the baseline
// (program order) is not renumbering-invariant, and recomputing the
// placement's cost keeps the response honest even if transport and the
// stored cost ever disagreed.
func mintResult(tr *trace.Trace, g *graph.Graph, p layout.Placement) (*Result, error) {
	if err := p.Validate(tr.NumItems); err != nil {
		return nil, err
	}
	base, err := core.ProgramOrder(tr)
	if err != nil {
		return nil, err
	}
	baseCost, err := cost.Linear(g, base)
	if err != nil {
		return nil, err
	}
	c, err := cost.Linear(g, p)
	if err != nil {
		return nil, err
	}
	return &Result{Policy: PolicyAnneal, Placement: p, Cost: c, BaselineCost: baseCost}, nil
}

// storeEntry converts a finished result into the canonical-space entry
// stored under the plan's key.
func storeEntry(canon *graph.Canonical, res *Result) placecache.Entry {
	return placecache.Entry{
		Placement: placecache.Canonize(res.Placement, canon.Labeling),
		Cost:      res.Cost,
		Profile:   canon.Profile,
	}
}
