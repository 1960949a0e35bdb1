package cost

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/layout"
)

func randomGraph(rng *rand.Rand, n int) *graph.Graph {
	var es []graph.Edge
	for i := 0; i < 4*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			es = append(es, graph.Edge{U: u, V: v, W: int64(rng.Intn(9) + 1)})
		}
	}
	g, err := graph.FromEdges(n, es)
	if err != nil {
		panic(err)
	}
	return g
}

func TestNewEvaluatorValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 6)
	if _, err := NewEvaluator(g, layout.Placement{0, 0, 1, 2, 3, 4}); err == nil {
		t.Error("invalid placement accepted")
	}
	// A placement into more slots than vertices is rejected for the
	// evaluator (it requires a permutation).
	if _, err := NewEvaluator(g, layout.Placement{0, 1, 2, 3, 4, 9}); err == nil {
		t.Error("sparse placement accepted")
	}
}

func TestEvaluatorSwapMatchesRecompute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(15) + 2
		g := randomGraph(rng, n)
		p, err := layout.FromOrder(rng.Perm(n))
		if err != nil {
			return false
		}
		e, err := NewEvaluator(g, p)
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			d := e.SwapDelta(u, v)
			before := e.Cost()
			after := e.SwapKnown(u, v, e.SwapDelta(u, v))
			if after != before+d {
				return false
			}
		}
		return e.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEvaluatorSwapDeltaSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 8)
	e, err := NewEvaluator(g, layout.Identity(8))
	if err != nil {
		t.Fatal(err)
	}
	if d := e.SwapDelta(3, 3); d != 0 {
		t.Errorf("self-swap delta = %d", d)
	}
}

func TestEvaluatorPlacementIsCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 5)
	e, err := NewEvaluator(g, layout.Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	p := e.Placement()
	p.Swap(0, 1)
	if err := e.Verify(); err != nil {
		t.Errorf("external mutation corrupted evaluator: %v", err)
	}
}

func TestEvaluatorSwapAdjacentItems(t *testing.T) {
	// Edge case: swapping two items connected by an edge must keep that
	// edge's contribution unchanged.
	g, err := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, W: 7}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(g, layout.Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	if d := e.SwapDelta(0, 1); d != 0 {
		t.Errorf("adjacent swap delta = %d, want 0", d)
	}
	e.SwapKnown(0, 1, e.SwapDelta(0, 1))
	if err := e.Verify(); err != nil {
		t.Error(err)
	}
}
