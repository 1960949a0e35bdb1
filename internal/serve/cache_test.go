package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/placecache"
	"repro/internal/trace"
	"repro/internal/workload"
)

// annealCounters samples the chain/iteration counters that prove (or
// disprove) that an anneal ran.
func annealCounters() (chains, iters int64) {
	return obs.GetCounter("core.anneal.chains").Value(),
		obs.GetCounter("core.anneal.iterations").Value()
}

func encodeTrace(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	var b bytes.Buffer
	if err := trace.Encode(&b, tr); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestCacheExactHitSkipsAnneal is the in-process twin of cache-smoke:
// the duplicate of a finished request must come back as a completed job
// with cache_hit set, a byte-identical result, and zero additional
// annealing work.
func TestCacheExactHitSkipsAnneal(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1})
	req := PlaceRequest{Trace: testTrace(t), Seed: 17, Iterations: 20000}

	_, id1 := submit(t, base, req)
	first := waitDone(t, base, id1)
	if first.Status != statusDone {
		t.Fatalf("cold job: %s (%s)", first.Status, first.Error)
	}
	if first.CacheHit {
		t.Fatal("first submission reported a cache hit")
	}

	chains0, iters0 := annealCounters()
	code, id2 := submit(t, base, req)
	if code != http.StatusAccepted {
		t.Fatalf("duplicate submission: status %d", code)
	}
	second := waitDone(t, base, id2)
	if !second.CacheHit {
		t.Fatal("duplicate submission was not served from the cache")
	}
	if second.Status != statusDone || second.Result == nil {
		t.Fatalf("hit job not done: %+v", second)
	}
	if chains1, iters1 := annealCounters(); chains1 != chains0 || iters1 != iters0 {
		t.Fatalf("cache hit ran the annealer: chains %d->%d, iterations %d->%d",
			chains0, chains1, iters0, iters1)
	}
	if second.Result.Cost != first.Result.Cost ||
		fmt.Sprint(second.Result.Placement) != fmt.Sprint(first.Result.Placement) {
		t.Fatal("cache hit returned a different result than the cold run")
	}
	if second.Result.BaselineCost != first.Result.BaselineCost {
		t.Fatal("cache hit returned a different baseline cost")
	}
}

// TestCacheRenumberedHit drives the canonicalization path end to end: a
// trace with every item relabeled is the same placement problem, so it
// must hit the cache and come back with the same objective value.
func TestCacheRenumberedHit(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1})
	orig := workload.Zipf(48, 4000, 1.2, 7)
	req := PlaceRequest{Trace: encodeTrace(t, orig), Seed: 23, Iterations: 20000}
	_, id1 := submit(t, base, req)
	first := waitDone(t, base, id1)
	if first.Status != statusDone {
		t.Fatalf("cold job: %s (%s)", first.Status, first.Error)
	}

	perm := rand.New(rand.NewSource(9)).Perm(orig.NumItems)
	renumbered := trace.New(orig.Name, orig.NumItems)
	for _, a := range orig.Accesses {
		if a.Write {
			renumbered.Write(perm[a.Item])
		} else {
			renumbered.Read(perm[a.Item])
		}
	}
	chains0, _ := annealCounters()
	_, id2 := submit(t, base, PlaceRequest{Trace: encodeTrace(t, renumbered), Seed: 23, Iterations: 20000})
	second := waitDone(t, base, id2)
	if !second.CacheHit {
		t.Fatal("renumbered submission missed the cache")
	}
	if chains1, _ := annealCounters(); chains1 != chains0 {
		t.Fatal("renumbered hit ran the annealer")
	}
	checkPlacement(t, second, orig.NumItems)
	if second.Result.Cost != first.Result.Cost {
		t.Fatalf("renumbered hit cost %d, original %d", second.Result.Cost, first.Result.Cost)
	}
}

// TestCacheWarmstart exercises the near-hit path: same structure class
// (degree profile) but a different exact key must run the annealer,
// warm-started, and still end at or below the baseline.
func TestCacheWarmstart(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1})
	req := PlaceRequest{Trace: testTrace(t), Seed: 3, Iterations: 20000}
	_, id1 := submit(t, base, req)
	if first := waitDone(t, base, id1); first.Status != statusDone {
		t.Fatalf("cold job: %s (%s)", first.Status, first.Error)
	}

	warm0 := obs.GetCounter("serve.cache.warmstarts").Value()
	// Same trace, different seed: same fingerprint and profile, different
	// exact key — a warm-startable miss.
	req2 := PlaceRequest{Trace: testTrace(t), Seed: 4, Iterations: 20000}
	_, id2 := submit(t, base, req2)
	second := waitDone(t, base, id2)
	if second.CacheHit {
		t.Fatal("different seed produced an exact hit")
	}
	if second.Status != statusDone {
		t.Fatalf("warm job: %s (%s)", second.Status, second.Error)
	}
	checkPlacement(t, second, 48)
	if got := obs.GetCounter("serve.cache.warmstarts").Value(); got != warm0+1 {
		t.Fatalf("warmstart counter %d -> %d, want +1", warm0, got)
	}
}

// TestCacheWarmstartRejectedNotCounted is the regression test for the
// overcounting bug: Nearest used to bump the warm-hit counter when a
// candidate was merely *found*, but the service only applies a warm start
// when it beats the policy's own start. A deliberately bad near-match
// must therefore leave both the service and cache counters untouched.
func TestCacheWarmstartRejectedNotCounted(t *testing.T) {
	s, base := startServer(t, Options{Workers: 1})
	tr, err := trace.Decode(strings.NewReader(testTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	cn := g.Canon()
	propose, _, err := core.Propose(tr, g)
	if err != nil {
		t.Fatal(err)
	}
	proposeCost, err := cost.Linear(g, propose)
	if err != nil {
		t.Fatal(err)
	}
	// Craft a placement strictly worse than the start the policy would
	// pick on its own, and plant it as the profile's freshest entry.
	rng := rand.New(rand.NewSource(77))
	var bad layout.Placement
	for {
		p := layout.Placement(rng.Perm(tr.NumItems))
		if c, err := cost.Linear(g, p); err == nil && c > proposeCost {
			bad = p
			break
		}
	}
	badCost, err := cost.Linear(g, bad)
	if err != nil {
		t.Fatal(err)
	}
	s.cache.Put(placecache.Key{
		FP:     cn.FP,
		Policy: servePolicyKey,
		Device: serveDevice,
		Seed:   12345, // never matches any effective seed below
	}, placecache.Entry{
		Placement: placecache.Canonize(bad, cn.Labeling),
		Cost:      badCost,
		Profile:   cn.Profile,
	})

	warm0 := obs.GetCounter("serve.cache.warmstarts").Value()
	cacheWarm0 := obs.GetCounter("placecache.warm_hits").Value()
	_, id := submit(t, base, PlaceRequest{Trace: testTrace(t), Seed: 6, Iterations: 20000})
	st := waitDone(t, base, id)
	if st.Status != statusDone {
		t.Fatalf("job: %s (%s)", st.Status, st.Error)
	}
	if st.CacheHit {
		t.Fatal("planted entry produced an exact hit")
	}
	if got := obs.GetCounter("serve.cache.warmstarts").Value(); got != warm0 {
		t.Fatalf("rejected warm candidate was counted: %d -> %d", warm0, got)
	}
	if got := obs.GetCounter("placecache.warm_hits").Value(); got != cacheWarm0 {
		t.Fatalf("rejected warm candidate bumped the cache counter: %d -> %d", cacheWarm0, got)
	}
}

// TestCacheDisabled pins the opt-out: with DisableCache every duplicate
// runs cold and cache_hit never appears.
func TestCacheDisabled(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1, DisableCache: true})
	req := PlaceRequest{Trace: testTrace(t), Seed: 17, Iterations: 5000}
	_, id1 := submit(t, base, req)
	first := waitDone(t, base, id1)

	chains0, _ := annealCounters()
	_, id2 := submit(t, base, req)
	second := waitDone(t, base, id2)
	if second.CacheHit {
		t.Fatal("cache hit despite DisableCache")
	}
	if chains1, _ := annealCounters(); chains1 == chains0 {
		t.Fatal("duplicate did not run the annealer despite DisableCache")
	}
	// Determinism holds with or without the cache.
	if fmt.Sprint(second.Result.Placement) != fmt.Sprint(first.Result.Placement) {
		t.Fatal("duplicate diverged with cache disabled")
	}
}

// TestCacheResumeBypassed pins that resume jobs neither consult nor
// populate the cache: a resumed job's start is job-local state, not a
// function of the request.
func TestCacheResumeBypassed(t *testing.T) {
	s, base := startServer(t, Options{Workers: 1})
	req := PlaceRequest{Trace: testTrace(t), Seed: 30, Iterations: 8000}
	_, id1 := submit(t, base, req)
	if first := waitDone(t, base, id1); first.Status != statusDone {
		t.Fatalf("cold job: %s (%s)", first.Status, first.Error)
	}
	entries0 := s.cache.Len()
	resumeReq := req
	resumeReq.Resume = id1
	_, id2 := submit(t, base, resumeReq)
	second := waitDone(t, base, id2)
	if second.CacheHit {
		t.Fatal("resume request was served from the cache")
	}
	if second.Status != statusDone {
		t.Fatalf("resume job: %s (%s)", second.Status, second.Error)
	}
	if s.cache.Len() != entries0 {
		t.Fatalf("resume job stored a cache entry: %d -> %d", entries0, s.cache.Len())
	}
}
