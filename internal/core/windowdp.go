package core

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/layout"
)

// WindowDPOptions tunes the sliding-window exact refinement.
type WindowDPOptions struct {
	// Window is the number of consecutive slots re-solved exactly per
	// step; 0 selects 6. Cost grows as Window! per step, so values above
	// 8 are rejected.
	Window int
	// MaxPasses bounds full sweeps; 0 selects convergence (capped).
	MaxPasses int
}

// WindowDP refines a placement by exactly re-solving sliding windows: for
// each run of Window consecutive slots it enumerates every arrangement of
// the items inside, scoring internal edges by arrangement and edges to
// outside items against their fixed slots, and keeps the best. Each step
// is optimal for its window, so the refinement never worsens the
// placement and can realize multi-item rotations that pairwise swaps and
// single relocations cannot. Complexity is O(n · Window! · deg) per pass.
func WindowDP(g *graph.Graph, p layout.Placement, opts WindowDPOptions) (layout.Placement, int64, error) {
	n := g.N()
	if err := p.Validate(n); err != nil {
		return nil, 0, fmt.Errorf("core: WindowDP: %w", err)
	}
	w := opts.Window
	if w == 0 {
		w = 6
	}
	if w < 2 || w > 8 {
		return nil, 0, fmt.Errorf("core: WindowDP window %d outside [2,8]", w)
	}
	if w > n {
		w = n
	}
	maxPasses := opts.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 20
	}

	cur := p.Clone()
	order, err := cur.Order()
	if err != nil {
		return nil, 0, err
	}

	// Per-window precomputation: a boundary table bc[k][j] = cost of the
	// k-th window item's outside edges when it sits at window position j,
	// plus the list of internal edges. A permutation then scores in
	// O(w + internal edges) instead of re-walking adjacency lists.
	items := make([]int, w)
	inWindow := make([]int, n) // item -> window index+1, 0 = outside
	bc := make([][]int64, w)
	for k := range bc {
		bc[k] = make([]int64, w)
	}
	type iedge struct {
		a, b int // window indices
		w    int64
	}
	var internal []iedge

	perm := make([]int, w)
	best := make([]int, w)
	pos := make([]int, w) // pos[windowIdx] = window position under perm

	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for lo := 0; lo+w <= n; lo++ {
			copy(items, order[lo:lo+w])
			for k, it := range items {
				inWindow[it] = k + 1
			}
			internal = internal[:0]
			for k, it := range items {
				for j := range bc[k] {
					bc[k][j] = 0
				}
				cols, ws := g.Row(it)
				for ci, u32 := range cols {
					u, wgt := int(u32), ws[ci]
					if x := inWindow[u]; x > 0 {
						if k < x-1 {
							internal = append(internal, iedge{a: k, b: x - 1, w: wgt})
						}
						continue
					}
					for j := 0; j < w; j++ {
						du := lo + j - cur[u]
						if du < 0 {
							du = -du
						}
						bc[k][j] += wgt * int64(du)
					}
				}
			}
			score := func() int64 {
				var c int64
				for j, idx := range perm {
					pos[idx] = j
					c += bc[idx][j]
				}
				for _, e := range internal {
					d := pos[e.a] - pos[e.b]
					if d < 0 {
						d = -d
					}
					c += e.w * int64(d)
				}
				return c
			}
			for k := range perm {
				perm[k] = k
			}
			copy(best, perm)
			bestCost := score()
			baseCost := bestCost
			permute(perm, 0, func() {
				if c := score(); c < bestCost {
					bestCost = c
					copy(best, perm)
				}
			})
			if bestCost < baseCost {
				for j, idx := range best {
					order[lo+j] = items[idx]
					cur[items[idx]] = lo + j
				}
				improved = true
			}
			for _, it := range items {
				inWindow[it] = 0
			}
		}
		if !improved {
			break
		}
	}
	c, err := cost.Linear(g, cur)
	if err != nil {
		return nil, 0, err
	}
	return cur, c, nil
}

// permute enumerates permutations of xs[k:] in place, invoking fn for
// each complete permutation (Heap-style recursion).
func permute(xs []int, k int, fn func()) {
	if k == len(xs) {
		fn()
		return
	}
	for i := k; i < len(xs); i++ {
		xs[k], xs[i] = xs[i], xs[k]
		permute(xs, k+1, fn)
		xs[k], xs[i] = xs[i], xs[k]
	}
}
