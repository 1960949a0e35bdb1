package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/trace"
	"repro/internal/workload"
)

// denseBenchInput is the fixed input of the refinement benchmarks: a
// dense Zipf trace (n = 160, 8192 accesses, skew 1.3), the largest shape
// of the benchmark's offline-dense inputs.
func denseBenchInput(b *testing.B) (*trace.Trace, *graph.Graph) {
	b.Helper()
	tr := workload.Zipf(160, 8192, 1.3, 7)
	g, err := graph.FromTrace(tr)
	if err != nil {
		b.Fatal(err)
	}
	return tr, g
}

// BenchmarkInsertion times Propose's relocation stage (three passes) from
// the TwoOpt-refined greedy chain on the dense input.
func BenchmarkInsertion(b *testing.B) {
	_, g := denseBenchInput(b)
	start, _, err := GreedyTwoOpt(g, TwoOptOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Insertion(g, start, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPropose times the whole single-tape pipeline on the dense
// input.
func BenchmarkPropose(b *testing.B) {
	tr, g := denseBenchInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Propose(tr, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTwoOpt times Propose's first refinement stage: TwoOpt to
// convergence from each of the three seeds (both greedy chains and
// program order), one after another, on the dense input.
func BenchmarkTwoOpt(b *testing.B) {
	tr, g := denseBenchInput(b)
	var seeds []layout.Placement
	for _, seed := range []GreedySeed{SeedHeaviestEdge, SeedHeaviestVertex} {
		p, err := GreedyChain(g, seed)
		if err != nil {
			b.Fatal(err)
		}
		seeds = append(seeds, p)
	}
	po, err := ProgramOrder(tr)
	if err != nil {
		b.Fatal(err)
	}
	seeds = append(seeds, po)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range seeds {
			if _, _, err := TwoOpt(g, s, TwoOptOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTwoOptWindowed times the windowed TwoOpt that Multilevel runs
// after uncoarsening (window 8, two passes) on a sparse Markov walk,
// n = 2048, from the greedy chain.
func BenchmarkTwoOptWindowed(b *testing.B) {
	g, err := graph.FromTrace(workload.Markov(2048, 20*2048, 7))
	if err != nil {
		b.Fatal(err)
	}
	start, err := GreedyChain(g, SeedHeaviestEdge)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := TwoOpt(g, start, TwoOptOptions{Window: 8, MaxPasses: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
