package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/trace"
)

func mustGraph(t *testing.T, n int, edges ...[3]int) *graph.Graph {
	t.Helper()
	es := make([]graph.Edge, len(edges))
	for i, e := range edges {
		es[i] = graph.Edge{U: e[0], V: e[1], W: int64(e[2])}
	}
	g, err := graph.FromEdges(n, es)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randGraph(rng *rand.Rand, n, edges int) *graph.Graph {
	var es []graph.Edge
	for i := 0; i < edges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			es = append(es, graph.Edge{U: u, V: v, W: int64(rng.Intn(20) + 1)})
		}
	}
	g, err := graph.FromEdges(n, es)
	if err != nil {
		panic(err)
	}
	return g
}

func TestGreedyChainOnPath(t *testing.T) {
	// A path graph's optimal arrangement is the path itself: cost = sum
	// of weights.
	g := mustGraph(t, 5, [3]int{0, 1, 5}, [3]int{1, 2, 4}, [3]int{2, 3, 3}, [3]int{3, 4, 2})
	p, err := GreedyChain(g, SeedHeaviestEdge)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cost.Linear(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if c != 14 {
		t.Errorf("greedy cost on path = %d, want 14 (optimal)", c)
	}
}

func TestGreedyChainIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		g := randGraph(rng, n, 3*n)
		p, err := GreedyChain(g, SeedHeaviestEdge)
		if err != nil {
			return false
		}
		return p.Validate(n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGreedyChainEmptyGraphVariants(t *testing.T) {
	// Graph with no edges: any permutation is fine (cost 0).
	g := mustGraph(t, 4)
	p, err := GreedyChain(g, SeedHeaviestEdge)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(4); err != nil {
		t.Error(err)
	}
	// Single vertex.
	g1 := mustGraph(t, 1)
	p1, err := GreedyChain(g1, SeedHeaviestEdge)
	if err != nil || len(p1) != 1 || p1[0] != 0 {
		t.Errorf("single vertex: %v, %v", p1, err)
	}
}

func TestGreedyChainPutsHeaviestEdgeAdjacent(t *testing.T) {
	g := mustGraph(t, 6,
		[3]int{2, 5, 100},
		[3]int{0, 1, 3},
		[3]int{3, 4, 2},
		[3]int{1, 2, 1},
	)
	p, err := GreedyChain(g, SeedHeaviestEdge)
	if err != nil {
		t.Fatal(err)
	}
	d := p[2] - p[5]
	if d != 1 && d != -1 {
		t.Errorf("heaviest edge endpoints at distance %d, want 1 (placement %v)", d, p)
	}
}

func TestGreedyChainBeatsProgramOrderOnKernels(t *testing.T) {
	// On locality-rich kernels the greedy chain must beat first-touch
	// order under the Linear objective.
	traces := []*trace.Trace{
		firTrace(), zigzagTrace(), chaseTrace(),
	}
	for _, tr := range traces {
		g, err := graph.FromTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		po, err := ProgramOrder(tr)
		if err != nil {
			t.Fatal(err)
		}
		base, err := cost.Linear(g, po)
		if err != nil {
			t.Fatal(err)
		}
		p, err := GreedyChain(g, SeedHeaviestEdge)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cost.Linear(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if c > base {
			t.Errorf("%s: greedy %d worse than program order %d", tr.Name, c, base)
		}
	}
}

func TestGreedySeedVariantsBothValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randGraph(rng, 30, 90)
	for _, seed := range []GreedySeed{SeedHeaviestEdge, SeedHeaviestVertex} {
		p, err := GreedyChain(g, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(30); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// Kernel-shaped helper traces used by several core tests.

func firTrace() *trace.Trace {
	tr := trace.New("fir-ish", 16)
	for s := 0; s < 50; s++ {
		for i := 0; i < 8; i++ {
			tr.Read(i)
			tr.Read(8 + i)
		}
	}
	return tr
}

func zigzagTrace() *trace.Trace {
	tr := trace.New("scan", 32)
	for b := 0; b < 40; b++ {
		for i := 0; i < 32; i++ {
			tr.Read((i*7 + 3) % 32) // a fixed permutation walk
		}
	}
	return tr
}

func chaseTrace() *trace.Trace {
	tr := trace.New("chase", 24)
	rng := rand.New(rand.NewSource(5))
	next := rng.Perm(24)
	cur := 0
	for i := 0; i < 2000; i++ {
		tr.Read(cur)
		cur = next[cur]
	}
	return tr
}
