package cost

import (
	"fmt"

	"repro/internal/graph"
)

// This file extends Evaluator with the delta primitives the streaming
// engine needs: cost tracking under graph mutation
// (EdgeDelta/ApplyGraphDeltas).

// EdgeDelta folds an edge-weight increment into the tracked cost: adding
// w to edge {u,v} changes the Linear objective by w·|pos(u)-pos(v)|
// regardless of the rest of the graph, so the evaluator's cost can follow
// graph mutation without a recompute. The caller is responsible for also
// repointing the evaluator at the patched CSR (see ApplyGraphDeltas,
// which does both).
func (e *Evaluator) EdgeDelta(u, v int, w int64) {
	e.cur += w * int64(abs(e.pos[u]-e.pos[v]))
}

// Rebase points the evaluator at a new CSR snapshot of the same vertex
// set, typically the patched successor produced by graph.ApplyDeltas.
// The tracked cost is NOT adjusted; reconcile it first via EdgeDelta for
// every applied weight increment, or use ApplyGraphDeltas.
func (e *Evaluator) Rebase(c *graph.CSR) error {
	if c.N() != len(e.pos) {
		return fmt.Errorf("cost: rebase onto CSR with %d vertices, evaluator has %d", c.N(), len(e.pos))
	}
	e.setCSR(c)
	return nil
}

// ApplyGraphDeltas moves the evaluator forward under graph mutation: ds
// is the batch just applied to the live graph (via graph.ApplyDeltas) and
// c is the resulting frozen view. The tracked cost is updated in O(len(ds))
// — the Linear objective is linear in edge weights, so each increment
// contributes independently and batching order cannot show through.
func (e *Evaluator) ApplyGraphDeltas(c *graph.CSR, ds []graph.Delta) error {
	if err := e.Rebase(c); err != nil {
		return err
	}
	for _, d := range ds {
		e.EdgeDelta(d.U, d.V, d.W)
	}
	return nil
}
