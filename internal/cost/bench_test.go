package cost

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/layout"
)

// benchGraph builds a Zipf-ish random transition graph without importing
// the workload package (cost sits below it in the dependency order).
func benchGraph(b *testing.B, n, edges int) *graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	var es []graph.Edge
	for i := 0; i < edges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			es = append(es, graph.Edge{U: u, V: v, W: int64(rng.Intn(16) + 1)})
		}
	}
	g, err := graph.FromEdges(n, es)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkSwapDelta(b *testing.B) {
	g := benchGraph(b, 1024, 1<<15)
	ev, err := NewEvaluator(g, layout.Identity(g.N()))
	if err != nil {
		b.Fatal(err)
	}
	n := g.N()
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += ev.SwapDelta(i%n, (i*7+3)%n)
	}
	_ = sink
}

func BenchmarkNewEvaluator(b *testing.B) {
	g := benchGraph(b, 1024, 1<<15)
	p := layout.Identity(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewEvaluator(g, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinear(b *testing.B) {
	g := benchGraph(b, 1024, 1<<15)
	p := layout.Identity(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Linear(g, p); err != nil {
			b.Fatal(err)
		}
	}
}
