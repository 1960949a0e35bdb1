// Package placecache memoizes placement results by graph content.
//
// The key insight (paper §III) is that the access-transition graph — and
// therefore the optimal placement problem — is invariant under item
// renumbering. The cache keys entries by the canonical fingerprint of
// the graph (graph.Canon) together with the device/objective descriptor
// and the policy's reproducibility inputs (policy name, seed, iteration
// budget, restarts, and an auxiliary hash covering anything else the
// result depends on). Placements are stored in canonical vertex space,
// so a hit computed under one numbering is decanonicalized into the
// requesting numbering through the requester's own labeling.
//
// The store is a bounded LRU with an optional append-only log on disk,
// an internal/wal segment log (see persist.go). Recency is tracked with a
// sequence-ordered list, never wall-clock time, so cache behavior is a
// pure function of the operation sequence — the determinism contract
// (DESIGN.md §7, §12) extends through the cache.
package placecache

import (
	"container/list"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/wal"
)

var (
	obsHits      = obs.GetCounter("placecache.hits")
	obsMisses    = obs.GetCounter("placecache.misses")
	obsWarmHits  = obs.GetCounter("placecache.warm_hits")
	obsStores    = obs.GetCounter("placecache.stores")
	obsEvictions = obs.GetCounter("placecache.evictions")
	obsEntries   = obs.GetGauge("placecache.entries")
	obsBytes     = obs.GetGauge("placecache.bytes")
)

// Key identifies one memoized result. Every field participates in
// equality; two requests with equal keys are guaranteed (up to hash
// collision on FP/Aux) to describe the same computation.
type Key struct {
	// FP is the canonical fingerprint of the access-transition graph.
	FP graph.Fingerprint
	// Policy names the placement policy that produced the entry.
	Policy string
	// Device describes the device/objective the placement was optimized
	// for ("linear" for the single-tape Linear shift objective).
	Device string
	// Seed, Iterations, Restarts are the policy's reproducibility inputs.
	Seed       int64
	Iterations int
	Restarts   int
	// Aux hashes any remaining inputs the result depends on — for the
	// annealer, the canonical-space start placement and the float
	// schedule parameters.
	Aux uint64
}

// Entry is one memoized result.
type Entry struct {
	// Placement is the result in canonical vertex space:
	// Placement[canonical vertex] = slot.
	Placement []int
	// Cost is the objective value of the placement (numbering-invariant
	// for the Linear objective).
	Cost int64
	// Profile is the degree-profile signature of the graph, the
	// secondary index Nearest searches for warm-start candidates.
	Profile uint64
}

// Options configures a cache.
type Options struct {
	// MaxEntries bounds the LRU; 0 selects 256.
	MaxEntries int
	// Dir, when non-empty, persists the cache under Dir/placecache/ as
	// an internal/wal segment log (created if missing). Existing records
	// are loaded on construction and every new store is appended.
	Dir string
}

// DefaultMaxEntries is the LRU bound when Options.MaxEntries is zero.
const DefaultMaxEntries = 256

// Cache is a bounded, persistent, renumbering-aware placement memo.
// All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	max     int                   // immutable after New
	entries map[Key]*list.Element //dwmlint:guard mu
	lru     *list.List            //dwmlint:guard mu
	profIdx map[uint64][]Key      //dwmlint:guard mu
	bytes   int64                 //dwmlint:guard mu
	log     *wal.Log              //dwmlint:guard mu
}

type node struct {
	key   Key
	entry Entry
}

// NewMemory returns a memory-only cache bounded to max entries (0
// selects DefaultMaxEntries).
func NewMemory(max int) *Cache {
	c, _ := New(Options{MaxEntries: max})
	return c
}

// New builds a cache from Options. With a persistence directory,
// existing records are loaded (records that fail validation are skipped
// and counted) before the cache accepts traffic.
func New(o Options) (*Cache, error) {
	max := o.MaxEntries
	if max <= 0 {
		max = DefaultMaxEntries
	}
	c := &Cache{
		max:     max,
		entries: make(map[Key]*list.Element),
		lru:     list.New(),
		profIdx: make(map[uint64][]Key),
	}
	if o.Dir != "" {
		l, err := c.openLog(o.Dir)
		if err != nil {
			return nil, fmt.Errorf("placecache: %w", err)
		}
		c.log = l
	}
	return c, nil
}

// Close closes the log, if any.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		return nil
	}
	err := c.log.Close()
	c.log = nil
	return err
}

// Get returns the entry for k, bumping its recency.
func (c *Cache) Get(k Key) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		obsMisses.Inc()
		return Entry{}, false
	}
	c.lru.MoveToFront(el)
	obsHits.Inc()
	return el.Value.(*node).entry, true
}

// Put stores e under k. First write wins: if k is already present the
// call only bumps recency, so concurrent identical computations cannot
// flap the stored bytes and replays stay pinned to the first result.
func (c *Cache) Put(k Key, e Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(k, e)
}

// put is Put without the lock. It appends to the log whenever one is
// open; load-time replay runs before New sets c.log, so replayed records
// are never written back.
//
//dwmlint:holds mu
func (c *Cache) put(k Key, e Entry) {
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.max {
		c.evictOldest()
	}
	el := c.lru.PushFront(&node{key: k, entry: e})
	c.entries[k] = el
	c.profIdx[e.Profile] = append(c.profIdx[e.Profile], k)
	c.bytes += entryBytes(e)
	obsStores.Inc()
	obsEntries.Set(int64(c.lru.Len()))
	obsBytes.Set(c.bytes)
	if c.log != nil {
		c.appendRecord(k, e)
	}
}

// evictOldest drops the least-recently-used entry. Callers hold c.mu.
//
//dwmlint:holds mu
func (c *Cache) evictOldest() {
	el := c.lru.Back()
	if el == nil {
		return
	}
	n := el.Value.(*node)
	c.lru.Remove(el)
	delete(c.entries, n.key)
	keys := c.profIdx[n.entry.Profile]
	for i, k := range keys {
		if k == n.key {
			c.profIdx[n.entry.Profile] = append(keys[:i], keys[i+1:]...)
			break
		}
	}
	if len(c.profIdx[n.entry.Profile]) == 0 {
		delete(c.profIdx, n.entry.Profile)
	}
	c.bytes -= entryBytes(n.entry)
	obsEvictions.Inc()
	obsEntries.Set(int64(c.lru.Len()))
	obsBytes.Set(c.bytes)
}

// Nearest returns the most recently stored entry whose degree profile
// matches and whose placement covers exactly n vertices — a structural
// near-match suitable for warm-starting a fresh search. It does not bump
// recency (a warm start is a hint, not a reuse), and it does not count a
// warm hit either: a candidate is only a hit once a consumer actually
// adopts it (it must beat the consumer's own start), which the consumer
// reports via NoteWarmApplied. Counting here would overstate warm hits by
// every near-match that lost to the policy's cold start.
func (c *Cache) Nearest(profile uint64, n int) (Key, Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.profIdx[profile]
	for i := len(keys) - 1; i >= 0; i-- {
		el, ok := c.entries[keys[i]]
		if !ok {
			continue
		}
		e := el.Value.(*node).entry
		if len(e.Placement) == n {
			return keys[i], e, true
		}
	}
	return Key{}, Entry{}, false
}

// NoteWarmApplied records that a placement returned by Nearest was
// actually adopted as a search's starting point. Consumers call it at the
// point of application, so the warm-hit counter (placecache.warm_hits)
// measures warm starts that happened, not candidates that
// were merely found.
func (c *Cache) NoteWarmApplied() { obsWarmHits.Inc() }

// Len returns the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// entryBytes approximates an entry's memory footprint for the bytes
// gauge: the placement slice plus fixed per-entry overhead.
func entryBytes(e Entry) int64 { return int64(8*len(e.Placement)) + 96 }

// Canonize maps a placement from request vertex space into canonical
// space: out[labeling[item]] = p[item].
func Canonize(p layout.Placement, labeling []int32) []int {
	out := make([]int, len(p))
	for item, slot := range p {
		out[labeling[item]] = slot
	}
	return out
}

// Decanonize maps a canonical-space placement back into request vertex
// space: out[item] = pc[labeling[item]]. It is the exact inverse of
// Canonize under the same labeling.
func Decanonize(pc []int, labeling []int32) layout.Placement {
	out := make(layout.Placement, len(pc))
	for item := range out {
		out[item] = pc[labeling[item]]
	}
	return out
}

// annealAux hashes the anneal inputs not covered by the key's named
// fields: the canonical-space start placement and the bitwise float
// schedule parameters.
func annealAux(canonStart []int, initialTemp, cooling float64) uint64 {
	h := stats.Mix64(uint64(len(canonStart)) ^ 0x9E3779B97F4A7C15)
	for _, s := range canonStart {
		h = stats.FoldSeq(h, uint64(s))
	}
	h = stats.FoldSeq(h, math.Float64bits(initialTemp))
	return stats.FoldSeq(h, math.Float64bits(cooling))
}

// annealAdapter adapts the cache to core.PlacementCache for plain
// AnnealOptions-driven calls (the dwmbench sweep path).
type annealAdapter struct {
	c      *Cache
	device string
}

// ForAnneal returns a core.PlacementCache view of the cache for the
// given device descriptor. The adapter keys on the graph fingerprint,
// the canonicalized start placement, and every AnnealOptions field the
// result depends on, so a Lookup hit replays exactly what a fresh run
// would compute.
func (c *Cache) ForAnneal(device string) core.PlacementCache {
	return &annealAdapter{c: c, device: device}
}

func (a *annealAdapter) key(cn *graph.Canonical, start layout.Placement, opts core.AnnealOptions) Key {
	return Key{
		FP:         cn.FP,
		Policy:     "core.anneal",
		Device:     a.device,
		Seed:       opts.Seed,
		Iterations: opts.Iterations,
		Restarts:   opts.Restarts,
		Aux:        annealAux(Canonize(start, cn.Labeling), opts.InitialTemp, opts.Cooling),
	}
}

// Lookup implements core.PlacementCache.
func (a *annealAdapter) Lookup(g *graph.Graph, start layout.Placement, opts core.AnnealOptions) (layout.Placement, int64, bool) {
	if len(start) != g.N() {
		return nil, 0, false
	}
	cn := g.Canon()
	e, ok := a.c.Get(a.key(cn, start, opts))
	if !ok || len(e.Placement) != g.N() {
		return nil, 0, false
	}
	return Decanonize(e.Placement, cn.Labeling), e.Cost, true
}

// Store implements core.PlacementCache.
func (a *annealAdapter) Store(g *graph.Graph, start layout.Placement, opts core.AnnealOptions, best layout.Placement, cost int64) {
	if len(start) != g.N() || len(best) != g.N() {
		return
	}
	cn := g.Canon()
	a.c.Put(a.key(cn, start, opts), Entry{
		Placement: Canonize(best, cn.Labeling),
		Cost:      cost,
		Profile:   cn.Profile,
	})
}
