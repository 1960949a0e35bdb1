package cost

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/trace"
)

// randomEvalGraph builds a random trace-derived graph with n items.
func randomEvalGraph(t testing.TB, rng *rand.Rand, n, accesses int) *graph.Graph {
	t.Helper()
	tr := trace.New("delta-test", n)
	for i := 0; i < accesses; i++ {
		tr.Read(rng.Intn(n))
	}
	g, err := graph.FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomPlacement(rng *rand.Rand, n int) layout.Placement {
	p := layout.Identity(n)
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// TestEvaluatorTracksGraphDeltas is the satellite property test: a stream
// of randomized graph delta batches — edge creation, weight increments,
// and deletion via weight reaching zero — applied through
// graph.ApplyDeltas + Evaluator.ApplyGraphDeltas must keep the evaluator
// in exact agreement with a cold FromTrace-style rebuild
// (Freeze + LinearCSR from scratch), as checked by Verify after every
// batch and by an independent cold evaluator at the end.
func TestEvaluatorTracksGraphDeltas(t *testing.T) {
	for _, n := range []int{4, 16, 64} {
		rng := rand.New(rand.NewSource(int64(7000 + n)))
		g := randomEvalGraph(t, rng, n, 10*n)
		e, err := NewEvaluator(g, randomPlacement(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 30; round++ {
			// Interleave placement moves with graph mutation, as the
			// streaming session does.
			u, v := rng.Intn(n), rng.Intn(n)
			e.SwapKnown(u, v, e.SwapDelta(u, v))
			batch := make([]graph.Delta, 0, 6)
			pend := make(map[[2]int]int64)
			for len(batch) < 1+rng.Intn(6) {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				if u > v {
					u, v = v, u
				}
				key := [2]int{u, v}
				cur, seen := pend[key]
				if !seen {
					cur = g.Weight(u, v)
				}
				var w int64
				switch rng.Intn(3) {
				case 0: // deletion via weight reaching zero
					w = -cur
					if w == 0 {
						w = 2
					}
				default:
					w = int64(rng.Intn(4) + 1)
				}
				pend[key] = cur + w
				batch = append(batch, graph.Delta{U: u, V: v, W: w})
			}
			if err := g.ApplyDeltas(batch); err != nil {
				t.Fatalf("round %d: ApplyDeltas: %v", round, err)
			}
			if err := e.ApplyGraphDeltas(g.Freeze(), batch); err != nil {
				t.Fatalf("round %d: ApplyGraphDeltas: %v", round, err)
			}
			if err := e.Verify(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		// Final cross-check against a completely cold evaluator on the
		// same end state.
		cold, err := NewEvaluatorCSR(g.Freeze(), e.Placement())
		if err != nil {
			t.Fatal(err)
		}
		if cold.Cost() != e.Cost() {
			t.Fatalf("n=%d: incremental cost %d != cold rebuild %d", n, e.Cost(), cold.Cost())
		}
	}
}

// TestEdgeDeltaUnderMutation pins EdgeDelta directly: the cost moves by
// w·|pos(u)-pos(v)| per increment and Verify agrees once the graph
// actually changes.
func TestEdgeDeltaUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 12
	g := randomEvalGraph(t, rng, n, 150)
	e, err := NewEvaluator(g, randomPlacement(rng, n))
	if err != nil {
		t.Fatal(err)
	}
	u, v := 2, 9
	p := e.Placement()
	gap := p[u] - p[v]
	if gap < 0 {
		gap = -gap
	}
	before := e.Cost()
	if err := g.ApplyDeltas([]graph.Delta{{U: u, V: v, W: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyGraphDeltas(g.Freeze(), []graph.Delta{{U: u, V: v, W: 5}}); err != nil {
		t.Fatal(err)
	}
	if want := before + 5*int64(gap); e.Cost() != want {
		t.Fatalf("cost after EdgeDelta = %d, want %d", e.Cost(), want)
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
}
