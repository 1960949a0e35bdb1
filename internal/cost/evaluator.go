package cost

import (
	"repro/internal/graph"
	"repro/internal/layout"
)

// Evaluator maintains a placement and its Linear cost, supporting O(deg)
// evaluation and application of item swaps. Local search and simulated
// annealing run millions of delta evaluations, so the evaluator iterates
// the graph's CSR rows — flat, cache-friendly slices — and its
// construction is a single pass over them with no sorting or per-vertex
// allocation.
type Evaluator struct {
	g   *graph.Graph
	pos layout.Placement
	cur int64

	// g's arrays (graph.Graph.Arrays), cached so SwapDelta slices rows
	// directly instead of paying a checked Graph.Row call per row.
	rowPtr  []int
	colIdx  []int32
	weights []int64
}

// NewEvaluator builds an evaluator on g for a placement that must be a
// permutation of [0, g.N()), sharing g with any other consumers (a
// graph is immutable).
func NewEvaluator(g *graph.Graph, p layout.Placement) (*Evaluator, error) {
	if err := p.Validate(g.N()); err != nil {
		return nil, err
	}
	cost, err := Linear(g, p)
	if err != nil {
		return nil, err
	}
	e := &Evaluator{g: g, pos: p.Clone(), cur: cost}
	e.rowPtr, e.colIdx, e.weights = g.Arrays()
	return e, nil
}

// Cost returns the current Linear cost.
func (e *Evaluator) Cost() int64 { return e.cur }

// Placement returns a copy of the current placement.
func (e *Evaluator) Placement() layout.Placement { return e.pos.Clone() }

// SwapDelta returns the cost change of swapping the slots of items u and
// v, without applying it. It is the annealer's inner loop, so it scans
// the two CSR rows straight out of the cached arrays, with each row's
// bounds checked once. The u–v edge itself is skipped: its length
// |pu-pv| survives the swap.
func (e *Evaluator) SwapDelta(u, v int) int64 {
	if u == v {
		return 0
	}
	pos, rowPtr := e.pos, e.rowPtr
	pu, pv := pos[u], pos[v]
	var delta int64
	lo, hi := rowPtr[u], rowPtr[u+1]
	cols, ws := e.colIdx[lo:hi], e.weights[lo:hi]
	ws = ws[:len(cols)]
	for i, to := range cols {
		if int(to) == v {
			continue
		}
		pt := pos[to]
		delta += ws[i] * int64(abs(pv-pt)-abs(pu-pt))
	}
	lo, hi = rowPtr[v], rowPtr[v+1]
	cols, ws = e.colIdx[lo:hi], e.weights[lo:hi]
	ws = ws[:len(cols)]
	for i, to := range cols {
		if int(to) == u {
			continue
		}
		pt := pos[to]
		delta += ws[i] * int64(abs(pu-pt)-abs(pv-pt))
	}
	return delta
}

// SwapKnown applies the swap of items u and v given d, the SwapDelta(u, v)
// the caller computed on the current placement, and returns the new cost.
// It spares a caller that priced the swap before deciding on it (the
// annealer) a second pair of row scans. A d from any other placement
// silently corrupts the tracked cost; the tests' Verify detects it.
func (e *Evaluator) SwapKnown(u, v int, d int64) int64 {
	e.cur += d
	e.pos.Swap(u, v)
	return e.cur
}
