package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/layout"
)

// GreedySeed selects how GreedyChain breaks ties when stitching leftover
// fragments together (ablation E9 compares the options).
type GreedySeed int

const (
	// SeedHeaviestEdge orders fragments by their internal weight,
	// heaviest first (the default).
	SeedHeaviestEdge GreedySeed = iota
	// SeedHeaviestVertex orders fragments by the weighted degree of
	// their heaviest vertex.
	SeedHeaviestVertex
)

// GreedyChain is the proposed constructive heuristic: process transition
// edges in descending weight and link their endpoints into chains whenever
// both are chain endpoints of different chains, so the heaviest
// adjacencies end up at distance one on the tape. Remaining chains are
// concatenated by descending weight (per seed policy). The result is a
// placement over slots 0..n-1.
//
// Complexity is O(E log E) for the edge sort plus near-linear chain
// bookkeeping, so it scales to thousands of items.
func GreedyChain(g *graph.Graph, seed GreedySeed) (layout.Placement, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	next := make([]int, n) // successor on the chain, -1 at tail
	prev := make([]int, n) // predecessor, -1 at head
	for i := range next {
		next[i], prev[i] = -1, -1
	}
	// Union-find over chains to reject edges that would close a cycle.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	chainWeight := make([]int64, n) // indexed by root

	isEndpoint := func(v int) bool { return next[v] == -1 || prev[v] == -1 }

	for _, e := range g.Edges() {
		ru, rv := find(e.U), find(e.V)
		if ru == rv || !isEndpoint(e.U) || !isEndpoint(e.V) {
			continue
		}
		// Orient the chains so e.U is a tail and e.V is a head.
		if next[e.U] != -1 {
			reverseChain(e.U, next, prev)
		}
		if prev[e.V] != -1 {
			reverseChain(e.V, next, prev)
		}
		next[e.U] = e.V
		prev[e.V] = e.U
		parent[ru] = rv
		chainWeight[rv] += chainWeight[ru] + e.W
	}

	// Collect chains: walk from heads.
	type chain struct {
		items  []int
		weight int64
		seedW  int64 // heaviest vertex weighted degree, for SeedHeaviestVertex
	}
	var chains []chain
	for v := 0; v < n; v++ {
		if prev[v] != -1 {
			continue
		}
		var ch chain
		for x := v; x != -1; x = next[x] {
			ch.items = append(ch.items, x)
			if wd := g.WeightedDegree(x); wd > ch.seedW {
				ch.seedW = wd
			}
		}
		ch.weight = chainWeight[find(v)]
		chains = append(chains, ch)
	}
	sort.SliceStable(chains, func(i, j int) bool {
		a, b := chains[i], chains[j]
		switch seed {
		case SeedHeaviestVertex:
			if a.seedW != b.seedW {
				return a.seedW > b.seedW
			}
		default:
			if a.weight != b.weight {
				return a.weight > b.weight
			}
		}
		// Deterministic tie-break: longer first, then smallest head ID.
		if len(a.items) != len(b.items) {
			return len(a.items) > len(b.items)
		}
		return a.items[0] < b.items[0]
	})

	order := make([]int, 0, n)
	for _, c := range chains {
		order = append(order, c.items...)
	}
	return layout.FromOrder(order)
}

// reverseChain reverses the chain containing v in place. v must be an
// endpoint; afterwards heads become tails and vice versa.
func reverseChain(v int, next, prev []int) {
	// Find the head.
	head := v
	for prev[head] != -1 {
		head = prev[head]
	}
	for x := head; x != -1; {
		nx := next[x]
		next[x], prev[x] = prev[x], nx
		x = nx
	}
}
