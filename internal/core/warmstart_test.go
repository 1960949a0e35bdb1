package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/workload"
)

// reversed returns the placement that puts item i at slot n-1-i.
func reversed(n int) layout.Placement {
	p := make(layout.Placement, n)
	for i := range p {
		p[i] = n - 1 - i
	}
	return p
}

// TestAnnealWarmstartNeverWorseThanItsSeed checks the monotonicity that
// makes warm-starting safe: re-annealing from a previous best at the
// same budget cannot end above that best's cost (best-so-far starts
// there), so warm-started runs are ≤ their cold ancestors.
func TestAnnealWarmstartNeverWorseThanItsSeed(t *testing.T) {
	g := annealTestGraph(t)
	opts := AnnealOptions{Seed: 4, Iterations: 8000}
	cold, coldCost, err := Anneal(g, layout.Identity(g.N()), opts)
	if err != nil {
		t.Fatal(err)
	}
	_, warmCost, err := Anneal(g, cold, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warmCost > coldCost {
		t.Fatalf("warm-started cost %d exceeds its seed's cost %d", warmCost, coldCost)
	}
}

// TestAnnealWarmstartInputNotMutated is the regression test for the
// adopt-without-clone bug: a warm start often comes from a cache or a
// streaming session and is shared, so a write through it would corrupt
// the caller's placement. The start must be byte-identical after a full
// run, including one with restarts.
func TestAnnealWarmstartInputNotMutated(t *testing.T) {
	g := annealTestGraph(t)
	warm := reversed(g.N())
	orig := warm.Clone()
	opts := AnnealOptions{Seed: 13, Iterations: 6000}
	if _, _, err := Anneal(g, warm, opts); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, orig) {
		t.Fatal("Anneal mutated the caller's start placement")
	}
	opts = AnnealOptions{Seed: 13, Iterations: 4000, Restarts: 3}
	if _, _, err := Anneal(g, warm, opts); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, orig) {
		t.Fatal("Anneal with restarts mutated the caller's start placement")
	}
}

// randomBenchGraph builds an n-vertex graph with ~4 random weighted
// edges per vertex, directly (no trace), sized for fingerprint
// benchmarking.
func randomBenchGraph(b *testing.B, n int, seed int64) *graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	var es []graph.Edge
	for u := 0; u < n; u++ {
		for k := 0; k < 4; k++ {
			v := rng.Intn(n)
			if v == u {
				continue
			}
			es = append(es, graph.Edge{U: u, V: v, W: int64(1 + rng.Intn(16))})
		}
	}
	g, err := graph.FromEdges(n, es)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkFingerprint measures one full canonicalization (WL refinement
// + individualization + fingerprint) of a fresh graph. The one-edge
// ApplyDeltas in the untimed section yields a new graph, which defeats
// the per-graph memo so every timed call does real work.
func BenchmarkFingerprint(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		b.Run(map[int]string{1024: "1k", 16384: "16k"}[n], func(b *testing.B) {
			g := randomBenchGraph(b, n, int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				next, err := g.ApplyDeltas([]graph.Delta{{U: 0, V: 1, W: 1}})
				if err != nil {
					b.Fatal(err)
				}
				g = next
				b.StartTimer()
				_ = g.Canon()
			}
		})
	}
}

// BenchmarkAnnealWarmstart compares a cold anneal against one warm-
// started from a previous best at the same iteration budget.
func BenchmarkAnnealWarmstart(b *testing.B) {
	tr := workload.Zipf(128, 12000, 1.2, 11)
	g, err := graph.FromTrace(tr)
	if err != nil {
		b.Fatal(err)
	}
	start := layout.Identity(g.N())
	opts := AnnealOptions{Seed: 5, Iterations: 40000}
	warm, _, err := Anneal(g, start, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := Anneal(g, start, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := Anneal(g, warm, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
