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
// Candidate target slots for an item x are the slots beside each graph
// neighbour's current slot (neighbours in ascending ID order, offsets −1,
// 0, +1, duplicates kept), where a relocation can actually pay off. Every
// candidate is priced with an exact integer delta: one sweep outward from
// x's slot in each direction accumulates the change on the edges of the
// items the move would shift, and x's own edges are added per candidate.
// The first strictly best improving candidate is applied. The sweeps read
// only the rows of the items between x and its farthest candidate, so a
// pass costs at most O(n·E + Σ deg²), with no full re-cost. Returns the
// refined placement and its cost.
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
	rowPtr, colIdx, weights := c.Arrays()

	// shifted[to] is the cost change, on edges not incident to x, of
	// moving x to slot to: the items between x and to each move one slot
	// toward x's old slot.
	shifted := make([]int64, n)
	var cands []int

	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for x := 0; x < n; x++ {
			from := cur[x]
			xs, xe := rowPtr[x], rowPtr[x+1]
			cands = cands[:0]
			lo, hi := from, from
			var xOld int64
			for i := xs; i < xe; i++ {
				pv := cur[colIdx[i]]
				xOld += weights[i] * int64(abs(pv-from))
				for to := pv - 1; to <= pv+1; to++ {
					if to >= 0 && to < n && to != from {
						cands = append(cands, to)
						lo, hi = min(lo, to), max(hi, to)
					}
				}
			}
			if len(cands) == 0 {
				continue
			}

			// Sweep outward from from, rightward then leftward. When
			// y = order[to] joins the shifted items, each edge (y, v) with
			// v ≠ x grows by its weight if v lies beyond to and shrinks
			// otherwise (an edge to an already-shifted v stops growing).
			for _, dir := range [2]int{1, -1} {
				var acc int64
				for to := from + dir; lo <= to && to <= hi; to += dir {
					y := order[to]
					for i := rowPtr[y]; i < rowPtr[y+1]; i++ {
						v := int(colIdx[i])
						if v == x {
							continue
						}
						if (cur[v]-to)*dir > 0 {
							acc += weights[i]
						} else {
							acc -= weights[i]
						}
					}
					shifted[to] = acc
				}
			}

			bestTo, bestDelta := -1, int64(0)
			for _, to := range cands {
				d := shifted[to] - xOld
				for i := xs; i < xe; i++ {
					pv := cur[colIdx[i]]
					if from < pv && pv <= to {
						pv--
					} else if to <= pv && pv < from {
						pv++
					}
					d += weights[i] * int64(abs(pv-to))
				}
				if d < bestDelta {
					bestTo, bestDelta = to, d
				}
			}
			if bestTo < 0 {
				continue
			}
			// Rewrite only the slots between from and bestTo.
			lo, hi = min(from, bestTo), max(from, bestTo)
			if from < bestTo {
				copy(order[from:bestTo], order[from+1:bestTo+1])
			} else {
				copy(order[bestTo+1:from+1], order[bestTo:from])
			}
			order[bestTo] = x
			for s := lo; s <= hi; s++ {
				cur[order[s]] = s
			}
			curCost += bestDelta
			improved = true
		}
		if !improved {
			break
		}
	}
	return cur, curCost, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
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
