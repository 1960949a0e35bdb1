package core

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// BenchmarkAnnealChain times one anneal chain on a fixed sparse Markov
// walk (n = 224, 32·n accesses, 12000·n proposals from the Propose
// start), the shape of the benchmark's offline-anneal inputs, and reports
// the chain's cost per proposal as ns/proposal.
func BenchmarkAnnealChain(b *testing.B) {
	const n = 224
	tr := workload.Markov(n, 32*n, 7)
	g, err := graph.FromTrace(tr)
	if err != nil {
		b.Fatal(err)
	}
	start, _, err := Propose(tr, g)
	if err != nil {
		b.Fatal(err)
	}
	c := g.Freeze()
	opts := AnnealOptions{Seed: 7, Iterations: 12000 * n}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := annealChain(context.Background(), c, start, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(opts.Iterations), "ns/proposal")
}
