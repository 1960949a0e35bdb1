package cost

import (
	"fmt"

	"repro/internal/layout"
)

// MultiPortOptimal returns the minimum shift count of serving seq on a
// single tape with the given ports when the controller may choose ports
// with full lookahead (an oracle head schedule), instead of the greedy
// nearest-port rule the device implements.
//
// Choosing port q for an access to slot s forces the tape offset to
// s − q, so the reachable states after each access are exactly one per
// port. Dynamic programming over (access index, chosen port) solves the
// whole schedule in O(T·k²) time and O(k) space. The gap between this
// bound and MultiPort quantifies how much a smarter controller could
// still save for a fixed placement.
func MultiPortOptimal(seq []int, p layout.Placement, ports []int, tapeLen int) (int64, error) {
	if err := p.Validate(tapeLen); err != nil {
		return 0, err
	}
	if err := checkPorts(ports, tapeLen); err != nil {
		return 0, err
	}
	k := len(ports)
	if len(seq) == 0 {
		return 0, nil
	}
	const inf = int64(1) << 62
	cur := make([]int64, k)
	next := make([]int64, k)

	// First access from offset 0.
	item := seq[0]
	if item < 0 || item >= len(p) {
		return 0, fmt.Errorf("cost: access 0 references item %d outside [0,%d)", item, len(p))
	}
	for j, q := range ports {
		cur[j] = int64(abs(p[item] - q))
	}
	for i := 1; i < len(seq); i++ {
		item := seq[i]
		if item < 0 || item >= len(p) {
			return 0, fmt.Errorf("cost: access %d references item %d outside [0,%d)", i, item, len(p))
		}
		slot := p[item]
		prevItem := seq[i-1]
		prevSlot := p[prevItem]
		for j := range next {
			next[j] = inf
		}
		for j2, q2 := range ports {
			newOffset := slot - q2
			for j1, q1 := range ports {
				if cur[j1] == inf {
					continue
				}
				oldOffset := prevSlot - q1
				if c := cur[j1] + int64(abs(newOffset-oldOffset)); c < next[j2] {
					next[j2] = c
				}
			}
		}
		cur, next = next, cur
	}
	best := cur[0]
	for _, c := range cur[1:] {
		if c < best {
			best = c
		}
	}
	return best, nil
}
