package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/workload"
)

func TestBarycentricValidAndNeverWorse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 2
		g := randGraph(rng, n, 4*n)
		start, err := layout.FromOrder(rng.Perm(n))
		if err != nil {
			return false
		}
		before, err := cost.Linear(g, start)
		if err != nil {
			return false
		}
		p, c, err := Barycentric(g, start)
		if err != nil {
			return false
		}
		if c > before { // best-visited includes the start
			return false
		}
		actual, err := cost.Linear(g, p)
		return err == nil && actual == c && p.Validate(n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBarycentricPullsCliquesTogether(t *testing.T) {
	// Two heavy cliques placed interleaved; barycentric iteration must
	// separate them (cost well below the interleaved start).
	g := mustGraph(t, 8)
	for _, clique := range [][]int{{0, 2, 4, 6}, {1, 3, 5, 7}} {
		for i := 0; i < len(clique); i++ {
			for j := i + 1; j < len(clique); j++ {
				g.AddWeight(clique[i], clique[j], 10)
			}
		}
	}
	start := layout.Identity(8) // interleaves the cliques
	before, err := cost.Linear(g, start)
	if err != nil {
		t.Fatal(err)
	}
	_, after, err := Barycentric(g, start)
	if err != nil {
		t.Fatal(err)
	}
	if float64(after) > 0.8*float64(before) {
		t.Errorf("barycentric failed to separate cliques: %d -> %d", before, after)
	}
}

func TestBarycentricRejectsBadPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randGraph(rng, 5, 10)
	if _, _, err := Barycentric(g, layout.Placement{0, 0, 1, 2, 3}); err == nil {
		t.Error("invalid placement accepted")
	}
}

func TestMultilevelValidPlacement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(150) + 2
		g := randGraph(rng, n, 4*n)
		p, c, err := Multilevel(g, MultilevelOptions{})
		if err != nil {
			return false
		}
		actual, err := cost.Linear(g, p)
		return err == nil && actual == c && p.Validate(n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMultilevelHandlesEdgelessGraph(t *testing.T) {
	g := mustGraph(t, 50)
	p, c, err := Multilevel(g, MultilevelOptions{BaseSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c != 0 || p.Validate(50) != nil {
		t.Errorf("edgeless: cost %d, err %v", c, p.Validate(50))
	}
}

func TestMultilevelBeatsWindowedTwoOptAtScale(t *testing.T) {
	// At n=512, one V-cycle should beat flat windowed 2-opt from the
	// greedy start: global structure matters.
	tr := workload.Zipf(512, 10240, 1.2, 9)
	g, err := graph.FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := GreedyChain(g, SeedHeaviestEdge)
	if err != nil {
		t.Fatal(err)
	}
	_, flat, err := TwoOpt(g, gp, TwoOptOptions{Window: refineWindow, MaxPasses: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, ml, err := Multilevel(g, MultilevelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if float64(ml) > 1.05*float64(flat) {
		t.Errorf("multilevel (%d) much worse than flat windowed 2-opt (%d)", ml, flat)
	}
}

func TestMultilevelSmallInstanceDelegates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randGraph(rng, 10, 30)
	mp, mc, err := Multilevel(g, MultilevelOptions{BaseSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	_, gc, err := GreedyTwoOpt(g, TwoOptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mc != gc {
		t.Errorf("small instance: multilevel %d != greedy2opt %d", mc, gc)
	}
	if err := mp.Validate(10); err != nil {
		t.Fatal(err)
	}
}
