package core

import (
	"repro/internal/graph"
	"repro/internal/layout"
)

// MultilevelOptions tunes the V-cycle heuristic.
type MultilevelOptions struct {
	// BaseSize is the instance size at which recursion stops and the
	// greedy+2-opt pipeline solves directly; 0 selects 32.
	BaseSize int
}

// refineWindow is the 2-opt window used during uncoarsening.
const refineWindow = 8

// Multilevel computes a placement with a coarsen–solve–uncoarsen V-cycle,
// the scalable configuration for large item counts: heaviest-edge
// matching contracts strongly connected item pairs, the coarse problem is
// solved recursively, and each uncoarsening step expands pairs into
// adjacent slots and re-refines with windowed 2-opt. One V-cycle costs
// O(E log E + n·refineWindow·deg) and preserves global structure that flat
// windowed local search cannot see.
func Multilevel(g *graph.Graph, opts MultilevelOptions) (layout.Placement, int64, error) {
	base := opts.BaseSize
	if base < 4 {
		base = 32
	}
	return multilevel(g, base)
}

func multilevel(g *graph.Graph, base int) (layout.Placement, int64, error) {
	n := g.N()
	if n <= base {
		return GreedyTwoOpt(g, TwoOptOptions{})
	}
	c := g.Freeze()

	// Heaviest-edge matching.
	matched := make([]int, n) // partner, -1 if unmatched
	for i := range matched {
		matched[i] = -1
	}
	pairs := 0
	for _, e := range c.Edges() {
		if matched[e.U] == -1 && matched[e.V] == -1 {
			matched[e.U], matched[e.V] = e.V, e.U
			pairs++
		}
	}
	if pairs == 0 {
		// Edgeless (or fully isolated) graph: nothing to contract.
		return GreedyTwoOpt(g, TwoOptOptions{})
	}

	// Build the coarse graph: each matched pair and each unmatched vertex
	// becomes one coarse vertex.
	coarseID := make([]int, n)
	for i := range coarseID {
		coarseID[i] = -1
	}
	var members [][]int // coarse vertex -> fine members (1 or 2)
	for v := 0; v < n; v++ {
		if coarseID[v] >= 0 {
			continue
		}
		id := len(members)
		coarseID[v] = id
		m := []int{v}
		if p := matched[v]; p >= 0 {
			coarseID[p] = id
			m = append(m, p)
		}
		members = append(members, m)
	}
	var coarse []graph.Edge
	c.EachEdge(func(u, v int, w int64) {
		if cu, cv := coarseID[u], coarseID[v]; cu != cv {
			coarse = append(coarse, graph.Edge{U: cu, V: cv, W: w})
		}
	})
	cg, err := graph.FromEdges(len(members), coarse)
	if err != nil {
		return nil, 0, err
	}

	coarseP, _, err := multilevel(cg, base)
	if err != nil {
		return nil, 0, err
	}
	coarseOrder, err := coarseP.Order()
	if err != nil {
		return nil, 0, err
	}

	// Uncoarsen: expand coarse slots into fine slots. Within a pair,
	// orient by affinity to the previously emitted item so chains keep
	// flowing in one direction.
	order := make([]int, 0, n)
	for _, cv := range coarseOrder {
		m := members[cv]
		if len(m) == 1 {
			order = append(order, m[0])
			continue
		}
		a, b := m[0], m[1]
		if len(order) > 0 {
			last := order[len(order)-1]
			if c.Weight(last, b) > c.Weight(last, a) {
				a, b = b, a
			}
		}
		order = append(order, a, b)
	}
	p, err := layout.FromOrder(order)
	if err != nil {
		return nil, 0, err
	}
	return TwoOpt(g, p, TwoOptOptions{Window: refineWindow, MaxPasses: 2})
}
