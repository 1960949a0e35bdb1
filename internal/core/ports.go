package core

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/dwm"
	"repro/internal/layout"
)

// OptimizePorts is the design-time counterpart of data placement: given a
// fixed placement and access sequence, choose where the k access ports
// should be fabricated along the tape. The default evenly spread layout
// is optimal for uniform traffic, but skewed placements reward skewed
// ports. Steepest-descent search over single-port moves (±1 slot and
// jumps to each occupied slot region), evaluated with the exact sequence
// cost, converges in a few passes at these sizes.
//
// Returns the port positions (sorted ascending) and the resulting shift
// count.
func OptimizePorts(seq []int, p layout.Placement, k, tapeLen int) ([]int, int64, error) {
	if k < 1 || k > tapeLen {
		return nil, 0, fmt.Errorf("core: cannot place %d ports on a %d-slot tape", k, tapeLen)
	}
	if err := p.Validate(tapeLen); err != nil {
		return nil, 0, fmt.Errorf("core: OptimizePorts: %w", err)
	}
	ports := dwm.SpreadPorts(tapeLen, k)
	cur, err := cost.MultiPort(seq, p, ports, tapeLen)
	if err != nil {
		return nil, 0, err
	}

	used := func(pos int, except int) bool {
		for i, q := range ports {
			if i != except && q == pos {
				return true
			}
		}
		return false
	}
	evaluate := func() (int64, error) {
		sorted := append([]int(nil), ports...)
		sort.Ints(sorted)
		return cost.MultiPort(seq, p, sorted, tapeLen)
	}

	// Candidate target positions: every occupied slot (ports belong where
	// the data is) plus each port's immediate neighborhood.
	occupied := make([]int, 0, len(p))
	occupied = append(occupied, p...)
	sort.Ints(occupied)

	const maxPasses = 20
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := range ports {
			orig := ports[i]
			bestPos, bestCost := orig, cur
			try := func(pos int) error {
				if pos < 0 || pos >= tapeLen || pos == orig || used(pos, i) {
					return nil
				}
				ports[i] = pos
				c, err := evaluate()
				ports[i] = orig
				if err != nil {
					return err
				}
				if c < bestCost {
					bestPos, bestCost = pos, c
				}
				return nil
			}
			for _, pos := range []int{orig - 1, orig + 1} {
				if err := try(pos); err != nil {
					return nil, 0, err
				}
			}
			for _, pos := range occupied {
				if err := try(pos); err != nil {
					return nil, 0, err
				}
			}
			if bestPos != orig {
				ports[i] = bestPos
				cur = bestCost
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	sort.Ints(ports)
	return ports, cur, nil
}
