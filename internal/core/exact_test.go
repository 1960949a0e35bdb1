package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/layout"
)

func TestExactDPOnPath(t *testing.T) {
	// Path with unit weights: optimum is the path order, cost n-1.
	g := mustGraph(t, 6,
		[3]int{0, 1, 1}, [3]int{1, 2, 1}, [3]int{2, 3, 1},
		[3]int{3, 4, 1}, [3]int{4, 5, 1})
	p, c, err := ExactDP(g)
	if err != nil {
		t.Fatal(err)
	}
	if c != 5 {
		t.Errorf("optimal cost = %d, want 5", c)
	}
	// Returned cost must match the placement's actual cost.
	actual, err := cost.Linear(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if actual != c {
		t.Errorf("placement cost %d != reported %d", actual, c)
	}
}

func TestExactDPOnStar(t *testing.T) {
	// Star K1,4 with unit weights: center at middle; optimum cost =
	// 1+1+2+2 = 6.
	g := mustGraph(t, 5,
		[3]int{0, 1, 1}, [3]int{0, 2, 1}, [3]int{0, 3, 1}, [3]int{0, 4, 1})
	_, c, err := ExactDP(g)
	if err != nil {
		t.Fatal(err)
	}
	if c != 6 {
		t.Errorf("star optimum = %d, want 6", c)
	}
}

func TestExactDPOnCycle(t *testing.T) {
	// Unit 4-cycle: best arrangement cost is 1+1+1+3 = 6 (one edge must
	// stretch over the whole line)... actually 0-1-2-3 line for cycle
	// edges (0,1),(1,2),(2,3),(3,0): 1+1+1+3 = 6. Alternative
	// arrangements cannot beat 6.
	g := mustGraph(t, 4,
		[3]int{0, 1, 1}, [3]int{1, 2, 1}, [3]int{2, 3, 1}, [3]int{3, 0, 1})
	_, c, err := ExactDP(g)
	if err != nil {
		t.Fatal(err)
	}
	if c != 6 {
		t.Errorf("cycle optimum = %d, want 6", c)
	}
}

func TestExactDPRejectsLarge(t *testing.T) {
	g, err := graph.FromEdges(MaxExactN+1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExactDP(g); err == nil {
		t.Error("oversized instance accepted")
	}
}

// branchAndBound is the independent oracle ExactDP is checked against:
// an optimal MinLA placement by branch-and-bound over arrangement
// prefixes, seeded with the greedy+2-opt incumbent. It uses an
// admissible lower bound: an edge with both endpoints unplaced must span
// at least distance 1; an edge from a vertex placed at position p to an
// unplaced vertex must span at least (k − p) where k is the prefix length.
func branchAndBound(g *graph.Graph) (layout.Placement, int64, error) {
	n := g.N()

	// Incumbent from greedy + 2-opt.
	inc, err := GreedyChain(g, SeedHeaviestEdge)
	if err != nil {
		return nil, 0, err
	}
	inc, incCost, err := TwoOpt(g, inc, TwoOptOptions{})
	if err != nil {
		return nil, 0, err
	}
	best := inc.Clone()
	bestCost := incCost

	// Internal-edge weight sum among unplaced vertices, maintained
	// incrementally, gives the "≥1 per unplaced edge" bound term.
	type arc struct {
		to int
		w  int64
	}
	adj := make([][]arc, n)
	var unplacedW int64
	for v := 0; v < n; v++ {
		cols, ws := g.Row(v)
		adj[v] = make([]arc, len(cols))
		for i, u := range cols {
			adj[v][i] = arc{int(u), ws[i]}
			if v < int(u) {
				unplacedW += ws[i]
			}
		}
	}

	pos := make([]int, n)
	placed := make([]bool, n)
	order := make([]int, 0, n)
	// frontier[v] = Σ w(u,v)·(position term) handled directly in bound().

	var cur int64 // exact cost of edges with both endpoints placed
	bound := func(k int) int64 {
		// Edges placed→unplaced: each must reach at least position k.
		var b int64
		for _, u := range order {
			for _, a := range adj[u] {
				if !placed[a.to] {
					b += a.w * int64(k-pos[u])
				}
			}
		}
		return cur + b + unplacedW
	}

	var dfs func(k int)
	dfs = func(k int) {
		if k == n {
			if cur < bestCost {
				bestCost = cur
				for i, v := range order {
					best[v] = i
				}
			}
			return
		}
		for v := 0; v < n; v++ {
			if placed[v] {
				continue
			}
			// Apply.
			var addCur int64
			var addUnplaced int64
			for _, a := range adj[v] {
				if placed[a.to] {
					addCur += a.w * int64(k-pos[a.to])
				} else {
					addUnplaced += a.w
				}
			}
			cur += addCur
			unplacedW -= addUnplaced
			placed[v] = true
			pos[v] = k
			order = append(order, v)

			if lb := bound(k + 1); lb < bestCost {
				dfs(k + 1)
			}

			// Undo.
			order = order[:len(order)-1]
			placed[v] = false
			unplacedW += addUnplaced
			cur -= addCur
		}
	}
	dfs(0)
	return best, bestCost, nil
}

func TestExactBBMatchesDP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(7) + 2 // 2..8
		g := randGraph(rng, n, 2*n)
		_, dpCost, err := ExactDP(g)
		if err != nil {
			return false
		}
		pBB, bbCost, err := branchAndBound(g)
		if err != nil {
			return false
		}
		if bbCost != dpCost {
			return false
		}
		actual, err := cost.Linear(g, pBB)
		return err == nil && actual == bbCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestExactNeverWorseThanHeuristics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 3 // 3..10
		g := randGraph(rng, n, 3*n)
		_, opt, err := ExactDP(g)
		if err != nil {
			return false
		}
		gp, err := GreedyChain(g, SeedHeaviestEdge)
		if err != nil {
			return false
		}
		gc, err := cost.Linear(g, gp)
		if err != nil {
			return false
		}
		_, tc, err := GreedyTwoOpt(g, TwoOptOptions{})
		if err != nil {
			return false
		}
		_, ac, err := GreedyAnnealContext(context.Background(), g, AnnealOptions{Seed: seed, Iterations: 500 * n})
		if err != nil {
			return false
		}
		return opt <= gc && opt <= tc && opt <= ac
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestExactDPSingleVertex(t *testing.T) {
	g := mustGraph(t, 1)
	p, c, err := ExactDP(g)
	if err != nil || c != 0 || len(p) != 1 {
		t.Errorf("single vertex: p=%v c=%d err=%v", p, c, err)
	}
}

func TestExactDPDisconnected(t *testing.T) {
	// Two disjoint heavy edges: optimum places each pair adjacent, cost 2.
	g := mustGraph(t, 4, [3]int{0, 2, 10}, [3]int{1, 3, 10})
	_, c, err := ExactDP(g)
	if err != nil {
		t.Fatal(err)
	}
	if c != 20 {
		t.Errorf("disconnected optimum = %d, want 20", c)
	}
}
