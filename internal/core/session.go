package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/obs"
)

// Session instrumentation: streaming rounds run, accesses ingested, and
// item migrations adopted (slot changes between consecutive round bests —
// the physical cost of following the drifting access pattern).
var (
	obsSessionRounds     = obs.GetCounter("core.session.rounds")
	obsSessionAccesses   = obs.GetCounter("core.session.accesses")
	obsSessionMigrations = obs.GetCounter("core.session.migrations")
)

// SessionOptions configures a streaming placement session.
type SessionOptions struct {
	// Items is the item-space size; every appended access must fall in
	// [0, Items). Required.
	Items int
	// Seed drives every improvement round: round r anneals with a seed
	// derived from (Seed, r) by the same splitmix scheme restarts use, so
	// the whole session replays byte-identically from (Seed, accesses).
	Seed int64
	// RoundEvery is the access-count interval between improvement rounds;
	// 0 selects 1024. Rounds fire at fixed multiples of the total ingested
	// access count — never at append boundaries — which is what makes the
	// session's placement independent of how the stream was chunked.
	RoundEvery int
	// RoundIterations is the annealing budget per improvement round; 0
	// selects 2000 proposals (cheap enough to run inline with ingest).
	RoundIterations int
	// Restarts is passed through to each round's anneal; ≤ 1 runs a
	// single chain.
	Restarts int
}

// SessionSnapshot is a point-in-time view of a session. Placement is a
// private copy and always a valid permutation — mid-round checkpoints
// publish only complete placements.
type SessionSnapshot struct {
	Placement  layout.Placement
	Cost       int64
	Items      int
	Accesses   int64
	Rounds     int64
	Migrations int64
}

// Session is the any-time incremental placement engine: it owns the
// evolving access-transition graph and the placement's cost over it,
// ingests accesses as they arrive, and periodically runs bounded
// annealing rounds that migrate the placement toward the drifted
// workload. Between rounds the cost follows graph mutation exactly — the
// Linear objective is linear in edge weights, so each applied delta adds
// W·|pos(u)-pos(v)| with no recompute — and a snapshot is always a valid
// placement with its true current cost.
//
// Determinism contract: after ingesting any fixed access sequence, the
// session's placement, cost, and migration count are a pure function of
// (SessionOptions, that sequence) — the chunking of Append calls cannot
// show through, because graph deltas commute and improvement rounds fire
// at fixed access-count boundaries with per-round derived seeds.
//
// Methods are safe for concurrent use; Append calls serialize, and
// Snapshot never blocks behind a running round (it reads a separately
// published copy that mid-round checkpoints keep fresh).
type Session struct {
	mu    sync.Mutex       // serializes Append/ingest state
	opts  SessionOptions   // immutable after NewSession
	g     *graph.Graph     //dwmlint:guard mu
	place layout.Placement //dwmlint:guard mu
	cost  int64            //dwmlint:guard mu — Linear cost of place over g

	last       int   //dwmlint:guard mu
	accesses   int64 //dwmlint:guard mu
	rounds     int64 //dwmlint:guard mu
	migrations int64 //dwmlint:guard mu

	// pending coalesces not-yet-applied transition deltas: one entry per
	// distinct item pair since the last flush, in first-touch order.
	pending []graph.Delta  //dwmlint:guard mu
	pendIdx map[[2]int]int //dwmlint:guard mu

	snapMu sync.Mutex
	snap   SessionSnapshot //dwmlint:guard snapMu
}

// NewSession creates a session over an empty transition graph with the
// identity placement.
func NewSession(opts SessionOptions) (*Session, error) {
	if opts.Items < 1 {
		return nil, fmt.Errorf("core: session needs at least one item, got %d", opts.Items)
	}
	if opts.RoundEvery <= 0 {
		opts.RoundEvery = 1024
	}
	if opts.RoundIterations <= 0 {
		opts.RoundIterations = 2000
	}
	g, err := graph.FromEdges(opts.Items, nil)
	if err != nil {
		return nil, err
	}
	s := &Session{
		opts:    opts,
		g:       g,
		place:   layout.Identity(opts.Items),
		last:    -1,
		pendIdx: make(map[[2]int]int),
	}
	s.publish()
	return s, nil
}

// Append ingests a batch of accesses, running any improvement rounds
// whose access-count boundaries the batch crosses. On a context error the
// session keeps the state of the last completed round, the already-
// ingested accesses stay counted, and the error is returned — callers
// that need the determinism contract should treat an interrupted session
// as dead rather than retry the same accesses.
func (s *Session) Append(ctx context.Context, accesses []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range accesses {
		if a < 0 || a >= s.opts.Items {
			return fmt.Errorf("core: access %d outside [0,%d)", a, s.opts.Items)
		}
	}
	for _, a := range accesses {
		if s.last >= 0 && s.last != a {
			s.addPending(s.last, a)
		}
		s.last = a
		s.accesses++
		if s.accesses%int64(s.opts.RoundEvery) == 0 {
			if err := s.flush(); err != nil {
				return err
			}
			if err := s.round(ctx); err != nil {
				s.publish()
				return err
			}
		}
	}
	// Fold any partial tail into the graph so snapshots reflect every
	// ingested access; this cannot affect round results (rounds always
	// flush first) and therefore cannot leak chunk boundaries.
	if err := s.flush(); err != nil {
		return err
	}
	obsSessionAccesses.Add(int64(len(accesses)))
	s.publish()
	return nil
}

// addPending coalesces one observed transition into the pending batch.
//
//dwmlint:holds mu
func (s *Session) addPending(u, v int) {
	if u > v {
		u, v = v, u
	}
	key := [2]int{u, v}
	if i, ok := s.pendIdx[key]; ok {
		s.pending[i].W++
		return
	}
	s.pendIdx[key] = len(s.pending)
	s.pending = append(s.pending, graph.Delta{U: u, V: v, W: 1})
}

// flush applies the pending transition deltas to the graph and moves the
// cost forward under the mutation: each increment contributes
// W·|pos(u)-pos(v)| independently, so batching cannot show through.
//
//dwmlint:holds mu
func (s *Session) flush() error {
	if len(s.pending) == 0 {
		return nil
	}
	g, err := s.g.ApplyDeltas(s.pending)
	if err != nil {
		return fmt.Errorf("core: session flush: %w", err)
	}
	s.g = g
	for _, d := range s.pending {
		s.cost += d.W * int64(abs(s.place[d.U]-s.place[d.V]))
	}
	s.pending = s.pending[:0]
	clear(s.pendIdx)
	return nil
}

// round runs one bounded annealing round from the current placement and
// adopts its best, counting the item migrations it implies. Mid-round
// checkpoints publish improving placements so long rounds never make
// Snapshot stale.
//
//dwmlint:holds mu
func (s *Session) round(ctx context.Context) error {
	s.rounds++
	round := s.rounds
	opts := AnnealOptions{
		Seed:       deriveSeed(s.opts.Seed, int(round)),
		Iterations: s.opts.RoundIterations,
		Restarts:   s.opts.Restarts,
		Checkpoint: func(p layout.Placement, c int64) {
			s.snapMu.Lock()
			// Within a round, lower is always fresher (chains improve
			// monotonically and restarts race); across rounds the
			// authoritative publish below resets the floor.
			if c < s.snap.Cost {
				s.snap.Placement = p // already a private clone
				s.snap.Cost = c
				s.snap.Rounds = round
			}
			s.snapMu.Unlock()
		},
	}
	best, bestCost, err := AnnealContext(ctx, s.g, s.place, opts)
	if err != nil {
		return fmt.Errorf("core: session round %d: %w", round, err)
	}
	moved := int64(0)
	for item, slot := range best {
		if s.place[item] != slot {
			moved++
		}
	}
	s.migrations += moved
	s.place = best
	s.cost = bestCost
	obsSessionRounds.Inc()
	obsSessionMigrations.Add(moved)
	return nil
}

// publish copies the authoritative state into the snapshot slot. Every
// caller flushes first, so the cost covers every ingested access.
// Callers hold s.mu.
//
//dwmlint:holds mu
func (s *Session) publish() {
	s.snapMu.Lock()
	s.snap = SessionSnapshot{
		Placement:  s.place.Clone(),
		Cost:       s.cost,
		Items:      s.opts.Items,
		Accesses:   s.accesses,
		Rounds:     s.rounds,
		Migrations: s.migrations,
	}
	s.snapMu.Unlock()
}

// Snapshot returns the latest published view of the session. It never
// blocks behind a running improvement round.
func (s *Session) Snapshot() SessionSnapshot {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	snap := s.snap
	snap.Placement = snap.Placement.Clone()
	return snap
}
