package core

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/layout"
)

// barycentricIterations is Barycentric's round count, past convergence
// on the evaluation workloads.
const barycentricIterations = 20

// Barycentric refines a placement by iterated barycenter projection, a
// classical linear-arrangement heuristic: each item's coordinate is moved
// to the weighted average of its neighbors' slots, items are re-ranked by
// coordinate to restore a permutation, and the process repeats. Items with
// heavy mutual edges are pulled together quickly, giving a good global
// shape that local search can then polish.
//
// It returns the best placement visited and its Linear cost; the input
// placement is not mutated. It runs barycentricIterations rounds.
func Barycentric(g *graph.Graph, p layout.Placement) (layout.Placement, int64, error) {
	if err := p.Validate(g.N()); err != nil {
		return nil, 0, fmt.Errorf("core: Barycentric: %w", err)
	}
	n := g.N()
	cur := p.Clone()
	best := cur.Clone()
	bestCost, err := cost.Linear(g, cur)
	if err != nil {
		return nil, 0, err
	}

	coord := make([]float64, n)
	rank := make([]int, n)
	for it := 0; it < barycentricIterations; it++ {
		for v := 0; v < n; v++ {
			var sum float64
			cols, ws := g.Row(v)
			for i, u := range cols {
				sum += float64(ws[i]) * float64(cur[u])
			}
			if wsum := g.WeightedDegree(v); wsum == 0 {
				coord[v] = float64(cur[v]) // isolated: stay put
			} else {
				coord[v] = sum / float64(wsum)
			}
		}
		for i := range rank {
			rank[i] = i
		}
		sort.SliceStable(rank, func(a, b int) bool {
			if coord[rank[a]] != coord[rank[b]] {
				return coord[rank[a]] < coord[rank[b]]
			}
			return cur[rank[a]] < cur[rank[b]] // stable tie-break by old slot
		})
		for s, v := range rank {
			cur[v] = s
		}
		cc, err := cost.Linear(g, cur)
		if err != nil {
			return nil, 0, err
		}
		if cc < bestCost {
			bestCost = cc
			copy(best, cur)
		}
	}
	return best, bestCost, nil
}
