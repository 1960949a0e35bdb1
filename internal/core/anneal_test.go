package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/workload"
)

func annealTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromTrace(workload.Zipf(48, 4000, 1.2, 7))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Restarts > 1 runs chains concurrently; the winner must not depend on
// scheduling, only on (Seed, Restarts).
func TestAnnealRestartsSeedStable(t *testing.T) {
	g := annealTestGraph(t)
	p := layout.Identity(g.N())
	opts := AnnealOptions{Seed: 3, Iterations: 5000, Restarts: 4}
	p1, c1, err := Anneal(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		p2, c2, err := Anneal(g, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if c1 != c2 || !reflect.DeepEqual(p1, p2) {
			t.Fatalf("run %d diverged: cost %d vs %d", run, c1, c2)
		}
	}
}

// Restarts <= 1 must be byte-identical to the historical single-chain
// behavior, and restart chains can only improve on chain 0.
func TestAnnealRestartsNeverWorseThanSingle(t *testing.T) {
	g := annealTestGraph(t)
	p := layout.Identity(g.N())
	single, sc, err := Anneal(g, p, AnnealOptions{Seed: 3, Iterations: 5000})
	if err != nil {
		t.Fatal(err)
	}
	zero, zc, err := Anneal(g, p, AnnealOptions{Seed: 3, Iterations: 5000, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sc != zc || !reflect.DeepEqual(single, zero) {
		t.Fatalf("Restarts=1 diverged from plain run: %d vs %d", zc, sc)
	}
	multi, mc, err := Anneal(g, p, AnnealOptions{Seed: 3, Iterations: 5000, Restarts: 6})
	if err != nil {
		t.Fatal(err)
	}
	if mc > sc {
		t.Errorf("best-of-6 cost %d worse than single chain %d", mc, sc)
	}
	got, err := cost.Linear(g, multi)
	if err != nil {
		t.Fatal(err)
	}
	if got != mc {
		t.Errorf("reported cost %d does not match placement cost %d", mc, got)
	}
}

// Cancelling mid-run must return the best placement found so far — a
// valid placement that beats the initial one — together with an error
// wrapping the context's error. The cancellation is triggered from the
// first checkpoint callback, so the test does not depend on timing: by
// the time the context fires, at least one improvement is recorded.
func TestAnnealContextCancelReturnsPartial(t *testing.T) {
	g := annealTestGraph(t)
	p := layout.Identity(g.N())
	initial, err := cost.Linear(g, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var checkpoints int
	partial, pc, err := AnnealContext(ctx, g, p, AnnealOptions{
		Seed:       3,
		Iterations: 10_000_000, // far more than the test ever runs
		Checkpoint: func(layout.Placement, int64) {
			checkpoints++
			cancel()
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if checkpoints == 0 {
		t.Fatal("checkpoint callback never ran")
	}
	if partial == nil {
		t.Fatal("no partial placement returned on cancel")
	}
	got, cerr := cost.Linear(g, partial)
	if cerr != nil {
		t.Fatal(cerr)
	}
	if got != pc {
		t.Errorf("reported partial cost %d does not match placement cost %d", pc, got)
	}
	if pc >= initial {
		t.Errorf("partial cost %d does not beat initial placement %d", pc, initial)
	}
}

// A context that is already expired yields the input placement back
// (cost unchanged) instead of failing outright.
func TestAnnealContextAlreadyCancelled(t *testing.T) {
	g := annealTestGraph(t)
	p := layout.Identity(g.N())
	initial, err := cost.Linear(g, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, c, err := AnnealContext(ctx, g, p, AnnealOptions{Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got == nil || c != initial {
		t.Fatalf("expired context returned placement %v cost %d, want input back at cost %d", got, c, initial)
	}
}

// Restart chains interrupted by cancellation still produce the best
// partial among every chain.
func TestAnnealContextCancelWithRestarts(t *testing.T) {
	g := annealTestGraph(t)
	p := layout.Identity(g.N())
	initial, err := cost.Linear(g, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	partial, pc, err := AnnealContext(ctx, g, p, AnnealOptions{
		Seed:       5,
		Iterations: 10_000_000,
		Restarts:   4,
		Checkpoint: func(layout.Placement, int64) {
			once.Do(cancel)
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if partial == nil {
		t.Fatal("no partial placement returned on cancel")
	}
	if verr := partial.Validate(g.N()); verr != nil {
		t.Fatalf("partial placement invalid: %v", verr)
	}
	if pc > initial {
		t.Errorf("partial cost %d worse than initial %d", pc, initial)
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 64; i++ {
		s := deriveSeed(1, i)
		if seen[s] {
			t.Fatalf("derived seed collision at index %d", i)
		}
		seen[s] = true
	}
	if deriveSeed(1, 5) != deriveSeed(1, 5) {
		t.Error("deriveSeed not stable")
	}
	if deriveSeed(1, 5) == deriveSeed(2, 5) {
		t.Error("deriveSeed ignores the base seed")
	}
}
