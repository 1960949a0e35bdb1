// Package cost evaluates the shift cost of placements analytically,
// without instantiating a device.
//
// Three evaluators cover the modeling levels used in the paper-style
// study:
//
//   - Linear: the graph (MinLA) objective Σ w(u,v)·|pos(u)-pos(v)|. For a
//     single-port tape whose head rests where the last access left it,
//     this equals the exact shift count of serving the trace, minus the
//     initial seek.
//   - MultiPort: exact head simulation on one tape, including the initial
//     seek from the ports' home position.
//   - MultiTape: exact per-tape head simulation on a multi-tape device.
//
// The Evaluator type provides O(degree) incremental re-evaluation of item
// swaps under the Linear objective, which the local-search and annealing
// optimizers depend on.
package cost

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/layout"
)

// Linear returns the MinLA objective of a placement on the access
// transition graph: Σ over edges w(u,v) * |pos(u)-pos(v)|. It evaluates
// on the graph's frozen CSR view (cached between mutations), so repeated
// scoring of the same graph — the pattern of every refinement loop — runs
// over flat arrays.
func Linear(g *graph.Graph, p layout.Placement) (int64, error) {
	return LinearCSR(g.Freeze(), p)
}

// LinearCSR is Linear on an already-frozen graph.
func LinearCSR(c *graph.CSR, p layout.Placement) (int64, error) {
	if len(p) != c.N() {
		return 0, fmt.Errorf("cost: placement covers %d items, graph has %d", len(p), c.N())
	}
	var total int64
	for u := 0; u < c.N(); u++ {
		pu := p[u]
		cols, ws := c.Row(u)
		for i, v := range cols {
			total += ws[i] * int64(abs(pu-p[v]))
		}
	}
	return total / 2, nil // every edge counted from both endpoints
}

// MultiPort returns the exact shift count of serving seq on a single tape
// of tapeLen slots with the given port positions, starting from offset
// zero and choosing the nearest port per access (the same greedy policy
// the device model implements).
func MultiPort(seq []int, p layout.Placement, ports []int, tapeLen int) (int64, error) {
	if err := p.Validate(tapeLen); err != nil {
		return 0, err
	}
	if err := checkPorts(ports, tapeLen); err != nil {
		return 0, err
	}
	var total [1]int64
	err := headWalk(seq, nil, p, ports, total[:])
	return total[0], err
}

// MultiTapeBreakdown returns the per-tape shift counts of serving seq,
// under the same model as MultiTape. The per-tape count is the wire's
// shift wear: every shift stresses every domain wall on that wire, so
// tape-level shift totals are the wear-leveling metric for DWM arrays.
func MultiTapeBreakdown(seq []int, mp layout.MultiPlacement, tapes, tapeLen int, ports []int) ([]int64, error) {
	if err := mp.Validate(tapes, tapeLen); err != nil {
		return nil, err
	}
	if err := checkPorts(ports, tapeLen); err != nil {
		return nil, err
	}
	perTape := make([]int64, tapes)
	if err := headWalk(seq, mp.Tape, mp.Slot, ports, perTape); err != nil {
		return nil, err
	}
	return perTape, nil
}

// MultiTape returns the exact shift count of serving seq on a device with
// the given number of tapes of tapeLen slots each and the given per-tape
// port positions. Each tape keeps its own head offset; cross-tape
// transitions cost nothing by themselves.
func MultiTape(seq []int, mp layout.MultiPlacement, tapes, tapeLen int, ports []int) (int64, error) {
	perTape, err := MultiTapeBreakdown(seq, mp, tapes, tapeLen, ports)
	var total int64
	for _, c := range perTape {
		total += c
	}
	return total, err
}

// checkPorts rejects an empty port list and any port outside the tape.
func checkPorts(ports []int, tapeLen int) error {
	if len(ports) == 0 {
		return fmt.Errorf("cost: no ports")
	}
	for i, q := range ports {
		if q < 0 || q >= tapeLen {
			return fmt.Errorf("cost: port %d at %d outside [0,%d)", i, q, tapeLen)
		}
	}
	return nil
}

// headWalk serves seq one access at a time: it moves the head of the
// item's tape (tape[item], or tape 0 when tape is nil) so that the item's
// slot sits under the nearest port, and adds the shifts to that tape's
// entry of perTape. Every head starts at offset zero. Among equally near
// ports the first in list order wins, the tie rule of dwm.Tape.
func headWalk(seq, tape, slot, ports []int, perTape []int64) error {
	offsets := make([]int, len(perTape))
	for i, item := range seq {
		if item < 0 || item >= len(slot) {
			return fmt.Errorf("cost: access %d references item %d outside [0,%d)", i, item, len(slot))
		}
		tp := 0
		if tape != nil {
			tp = tape[item]
		}
		s := slot[item] - offsets[tp]
		best, at := -1, 0
		for _, q := range ports {
			if d := abs(s - q); best == -1 || d < best {
				best, at = d, q
			}
		}
		offsets[tp] = slot[item] - at
		perTape[tp] += int64(best)
	}
	return nil
}

// abs is |x|, branch-free through the sign mask rather than through the
// compiler's choice of a conditional move: SwapDelta and LinearCSR call
// it for every neighbor, and the sign of a slot distance is close to a
// coin flip, the worst case for a predicted branch.
func abs(x int) int {
	m := x >> 63
	return (x ^ m) - m
}
