package core

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/layout"
)

// TwoOptOptions tunes the pairwise-swap local search.
type TwoOptOptions struct {
	// MaxPasses bounds the number of full improvement passes; 0 means
	// iterate to a local optimum (with a generous internal cap).
	MaxPasses int
	// Window restricts candidate swaps to item pairs whose current slots
	// are within the window; 0 means all pairs. Windowed passes are
	// near-linear and are the scalable configuration for large n
	// (ablation E9 quantifies the quality loss).
	Window int
}

// TwoOpt refines a placement by steepest-descent pairwise swaps under the
// Linear (MinLA) objective, using O(degree) incremental deltas. It returns
// the refined placement and its Linear cost. The input placement must be a
// permutation of [0, g.N()) and is not mutated.
func TwoOpt(g *graph.Graph, p layout.Placement, opts TwoOptOptions) (layout.Placement, int64, error) {
	ev, err := cost.NewEvaluator(g, p)
	if err != nil {
		return nil, 0, fmt.Errorf("core: TwoOpt: %w", err)
	}
	n := g.N()
	maxPasses := opts.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 50 * n // effectively "until converged"
	}
	// itemAt[s] = item in slot s, maintained for window filtering.
	itemAt := make([]int, n)
	cur := ev.Placement()
	for item, s := range cur {
		itemAt[s] = item
	}

	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for s1 := 0; s1 < n; s1++ {
			hi := n
			if opts.Window > 0 && s1+opts.Window+1 < n {
				hi = s1 + opts.Window + 1
			}
			for s2 := s1 + 1; s2 < hi; s2++ {
				u, v := itemAt[s1], itemAt[s2]
				if d := ev.SwapDelta(u, v); d < 0 {
					ev.SwapKnown(u, v, d)
					itemAt[s1], itemAt[s2] = v, u
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return ev.Placement(), ev.Cost(), nil
}

// Insertion refines a placement with OR-opt-style single-item relocation:
// remove an item and reinsert it at another slot, cyclically shifting the
// items in between. It complements TwoOpt, which cannot express
// relocations in one move.
//
// To stay fast on large instances, candidate target slots for an item are
// restricted to the slots adjacent to the item's graph neighbors (where a
// relocation can actually pay off) rather than all n positions, so a pass
// costs O(Σ deg(v)·E_eval) instead of O(n²·E_eval). Returns the refined
// placement and its cost.
func Insertion(g *graph.Graph, p layout.Placement, maxPasses int) (layout.Placement, int64, error) {
	if err := p.Validate(g.N()); err != nil {
		return nil, 0, fmt.Errorf("core: Insertion: %w", err)
	}
	c := g.Freeze()
	n := c.N()
	if maxPasses <= 0 {
		maxPasses = 10
	}
	cur := p.Clone()
	order, err := cur.Order()
	if err != nil {
		return nil, 0, err
	}
	curCost, err := cost.LinearCSR(c, cur)
	if err != nil {
		return nil, 0, err
	}

	apply := func(from, to int) {
		item := order[from]
		if from < to {
			copy(order[from:to], order[from+1:to+1])
		} else {
			copy(order[to+1:from+1], order[to:from])
		}
		order[to] = item
		for s, it := range order {
			cur[it] = s
		}
	}

	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for item := 0; item < n; item++ {
			from := cur[item]
			// Candidate targets: beside each neighbor's current slot.
			var cands []int
			c.Neighbors(item, func(v int, _ int64) {
				for _, d := range []int{-1, 0, 1} {
					if to := cur[v] + d; to >= 0 && to < n && to != from {
						cands = append(cands, to)
					}
				}
			})
			bestTo, bestCost := -1, curCost
			for _, to := range cands {
				apply(from, to)
				cc, err := cost.LinearCSR(c, cur)
				if err != nil {
					return nil, 0, err
				}
				if cc < bestCost {
					bestTo, bestCost = to, cc
				}
				apply(to, from) // undo
			}
			if bestTo >= 0 {
				apply(from, bestTo)
				curCost = bestCost
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cur, curCost, nil
}

// GreedyTwoOpt runs the proposed pipeline: greedy chain construction
// followed by 2-opt refinement. This is the headline configuration of the
// evaluation.
func GreedyTwoOpt(g *graph.Graph, opts TwoOptOptions) (layout.Placement, int64, error) {
	p, err := GreedyChain(g, SeedHeaviestEdge)
	if err != nil {
		return nil, 0, err
	}
	return TwoOpt(g, p, opts)
}
