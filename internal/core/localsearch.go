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

// stageOrder checks a refinement stage's input once: p must be a
// permutation of [0, n). It returns p's inverse view (order[s] is the
// item in slot s), and every rejection carries the stage's error prefix.
func stageOrder(stage string, p layout.Placement, n int) ([]int, error) {
	if len(p) != n {
		return nil, fmt.Errorf("core: %s: placement covers %d items, graph has %d", stage, len(p), n)
	}
	order, err := p.Order()
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", stage, err)
	}
	return order, nil
}

// TwoOpt refines a placement by first-improvement pairwise swaps under the
// Linear (MinLA) objective. A pass visits the slot pairs (s1, s2), s1 < s2
// (within the window, if one is set), in lexicographic order and applies
// each swap of the items in s1 and s2 that strictly lowers the cost, at
// once; passes repeat until one applies nothing. It returns the refined
// placement and its Linear cost. The input placement must be a
// permutation of [0, g.N()) and is not mutated.
//
// Most pairs are rejected without reading the row of the item in s2. For
// u in s1, F_u(q) = Σ w·|q − pos t| over u's edges (u, t); for v in s2,
// the swap changes the cost by
//
//	F_u(s2) − F_u(s1) + F_v(s1) − F_v(s2) + 2·w_uv·(s2 − s1).
//
// A row sweep keeps F_u(s2) − F_u(s1) as s2 advances, and w_uv is read
// from u's edge weights scattered by slot. F_v is convex, so F_v(s1) −
// F_v(s2) ≥ −F_v'(s2)·(s2 − s1), where F_v'(s2) is v's slope
// Σ w·sign(s2 − pos t), kept per slot and updated on every applied swap.
// A pair whose bound is ≥ 0 cannot improve and is skipped; the rest are
// priced exactly in O(deg v). The visit order and every applied swap are
// therefore those of pricing each pair in full.
func TwoOpt(g *graph.Graph, p layout.Placement, opts TwoOptOptions) (layout.Placement, int64, error) {
	n := g.N()
	itemAt, err := stageOrder("TwoOpt", p, n)
	if err != nil {
		return nil, 0, err
	}
	maxPasses := opts.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 50 * n // effectively "until converged"
	}
	pos := p.Clone()
	curCost, err := cost.Linear(g, pos)
	if err != nil {
		return nil, 0, err
	}
	rowPtr, colIdx, weights := g.Arrays()

	// slopeAt[s] = Σ w·sign(s − pos t) over the edges (x, t) of the item x
	// in slot s: F_x's derivative at x's own slot, which no neighbour
	// shares, so it is never a kink.
	slopeOf := func(x int) int64 {
		s := pos[x]
		var sl int64
		for i := rowPtr[x]; i < rowPtr[x+1]; i++ {
			if pos[colIdx[i]] < s {
				sl += weights[i]
			} else {
				sl -= weights[i]
			}
		}
		return sl
	}
	slopeAt := make([]int64, n)
	for x := 0; x < n; x++ {
		slopeAt[pos[x]] = slopeOf(x)
	}
	// wslot[s] is the weight of the edge between the row's item and the
	// item in slot s (0 if none).
	wslot := make([]int64, n)
	scatter := func(x int) {
		for i := rowPtr[x]; i < rowPtr[x+1]; i++ {
			wslot[pos[colIdx[i]]] = weights[i]
		}
	}

	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for s1 := 0; s1 < n; s1++ {
			hi := n
			if opts.Window > 0 && s1+opts.Window+1 < n {
				hi = s1 + opts.Window + 1
			}
			u := itemAt[s1]
			scatter(u)
			// At s2, rise = F_u(s2) − F_u(s1) and sl is F_u's slope on
			// [s2, s2+1]; the sweep starts from u's own slope at s1.
			var rise int64
			sl := slopeAt[s1]
			for s2 := s1 + 1; s2 < hi; s2++ {
				rise += sl
				w2 := wslot[s2]
				sl += 2 * w2
				dp := int64(s2 - s1)
				au := rise + 2*w2*dp
				if au-slopeAt[s2]*dp >= 0 {
					continue
				}
				v := itemAt[s2]
				d := au
				for i := rowPtr[v]; i < rowPtr[v+1]; i++ {
					pt := pos[colIdx[i]]
					d += weights[i] * int64(abs(s1-pt)-abs(s2-pt))
				}
				if d >= 0 {
					continue
				}
				// Apply the swap. Only the slopes of neighbours strictly
				// between s1 and s2 change: u passes them rightward and v
				// leftward; u's and v's own slopes are recomputed.
				for i := rowPtr[u]; i < rowPtr[u+1]; i++ {
					pt := pos[colIdx[i]]
					wslot[pt] = 0
					if s1 < pt && pt < s2 {
						slopeAt[pt] -= 2 * weights[i]
					}
				}
				for i := rowPtr[v]; i < rowPtr[v+1]; i++ {
					if pt := pos[colIdx[i]]; s1 < pt && pt < s2 {
						slopeAt[pt] += 2 * weights[i]
					}
				}
				pos[u], pos[v] = s2, s1
				itemAt[s1], itemAt[s2] = v, u
				slopeAt[s1], slopeAt[s2] = slopeOf(v), slopeOf(u)
				curCost += d
				improved = true

				// v now heads the row: restart the sweep state at s2.
				u = v
				scatter(u)
				rise, sl = 0, 0
				for i := rowPtr[u]; i < rowPtr[u+1]; i++ {
					pt := pos[colIdx[i]]
					rise += weights[i] * int64(abs(s2-pt)-abs(s1-pt))
					if pt <= s2 {
						sl += weights[i]
					} else {
						sl -= weights[i]
					}
				}
			}
			for i := rowPtr[u]; i < rowPtr[u+1]; i++ {
				wslot[pos[colIdx[i]]] = 0
			}
		}
		if !improved {
			break
		}
	}
	return pos, curCost, nil
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
	n := g.N()
	order, err := stageOrder("Insertion", p, n)
	if err != nil {
		return nil, 0, err
	}
	if maxPasses <= 0 {
		maxPasses = 10
	}
	cur := p.Clone()
	curCost, err := cost.Linear(g, cur)
	if err != nil {
		return nil, 0, err
	}
	rowPtr, colIdx, weights := g.Arrays()

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
