package core

import (
	"testing"

	"repro/internal/graph"
)

// Closed-form MinLA optima for structured graph families anchor the
// exact solver (and measure the pipeline) against mathematics rather
// than against other code.

// unitGraph builds an n-vertex graph with a unit-weight edge per pair.
func unitGraph(t *testing.T, n int, pairs [][2]int) *graph.Graph {
	t.Helper()
	es := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		es[i] = graph.Edge{U: p[0], V: p[1], W: 1}
	}
	g, err := graph.FromEdges(n, es)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func pathPairs(n int) [][2]int {
	var ps [][2]int
	for i := 0; i+1 < n; i++ {
		ps = append(ps, [2]int{i, i + 1})
	}
	return ps
}

func path(t *testing.T, n int) *graph.Graph { return unitGraph(t, n, pathPairs(n)) }

func cycle(t *testing.T, n int) *graph.Graph {
	return unitGraph(t, n, append(pathPairs(n), [2]int{n - 1, 0}))
}

func star(t *testing.T, leaves int) *graph.Graph {
	var ps [][2]int
	for i := 1; i <= leaves; i++ {
		ps = append(ps, [2]int{0, i})
	}
	return unitGraph(t, leaves+1, ps)
}

func complete(t *testing.T, n int) *graph.Graph {
	var ps [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ps = append(ps, [2]int{i, j})
		}
	}
	return unitGraph(t, n, ps)
}

// starOptimum is the MinLA of K_{1,l}: center in the middle, leaves
// alternating outward: sum of 1..ceil(l/2) plus 1..floor(l/2).
func starOptimum(leaves int) int64 {
	tri := func(k int) int64 { return int64(k) * int64(k+1) / 2 }
	return tri((leaves+1)/2) + tri(leaves/2)
}

func TestKnownOptimaExact(t *testing.T) {
	for n := 2; n <= 10; n++ {
		// Path P_n: optimum n-1 (the path itself).
		if _, c, err := ExactDP(path(t, n)); err != nil || c != int64(n-1) {
			t.Errorf("path n=%d: optimum %d (err %v), want %d", n, c, err, n-1)
		}
		// Cycle C_n (n >= 3): optimum 2n-2 (one edge spans the line...
		// in the optimal arrangement the cycle folds so every edge has
		// distance <= 2).
		if n >= 3 {
			if _, c, err := ExactDP(cycle(t, n)); err != nil || c != int64(2*n-2) {
				t.Errorf("cycle n=%d: optimum %d (err %v), want %d", n, c, err, 2*n-2)
			}
		}
		// Complete graph K_n: every arrangement costs n(n^2-1)/6.
		want := int64(n) * int64(n*n-1) / 6
		if _, c, err := ExactDP(complete(t, n)); err != nil || c != want {
			t.Errorf("K_%d: optimum %d (err %v), want %d", n, c, err, want)
		}
	}
	for leaves := 1; leaves <= 9; leaves++ {
		if _, c, err := ExactDP(star(t, leaves)); err != nil || c != starOptimum(leaves) {
			t.Errorf("star l=%d: optimum %d (err %v), want %d", leaves, c, err, starOptimum(leaves))
		}
	}
}

func TestProposePipelineHitsKnownOptima(t *testing.T) {
	// The full pipeline (driven by a synthetic trace that induces each
	// graph) should reach the closed-form optimum on paths and stars.
	// Build traces whose transition graphs are exactly the target shapes.
	for n := 3; n <= 12; n++ {
		// A back-and-forth walk induces the path graph.
		tr := seqTrace(n)
		for rep := 0; rep < 3; rep++ {
			for i := 0; i < n; i++ {
				tr.Read(i)
			}
			for i := n - 2; i >= 1; i-- {
				tr.Read(i)
			}
		}
		g, err := graph.FromTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := Propose(tr, g)
		if err != nil {
			t.Fatal(err)
		}
		_, opt, err := ExactDP(g)
		if err != nil {
			t.Fatal(err)
		}
		if got != opt {
			t.Errorf("path walk n=%d: pipeline %d, optimum %d", n, got, opt)
		}
	}
	// A hub-and-spoke access pattern (hub between every leaf touch)
	// induces the star graph.
	leaves := 8
	tr := seqTrace(leaves + 1)
	for rep := 0; rep < 5; rep++ {
		for l := 1; l <= leaves; l++ {
			tr.Read(0)
			tr.Read(l)
		}
	}
	g, err := graph.FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := Propose(tr, g)
	if err != nil {
		t.Fatal(err)
	}
	_, opt, err := ExactDP(g)
	if err != nil {
		t.Fatal(err)
	}
	if got != opt {
		t.Errorf("star walk: pipeline %d, optimum %d", got, opt)
	}
}
