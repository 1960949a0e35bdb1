package core

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/trace"
)

// GroupedPropose places data at object granularity: items carrying the
// same group ID (the words of one array, one structure, one lookup table)
// must stay contiguous on the tape, in first-touch order within the
// group. This models a toolchain that can reorder whole objects but not
// split them — the realistic constraint for compilers without array
// partitioning — and experiment E14 quantifies what that constraint costs
// relative to word-granular placement.
//
// Groups are ordered by the proposed single-tape pipeline applied to the
// quotient transition graph (one vertex per group, edge weights summing
// the cross-group transition counts). Returns the item placement and its
// Linear cost on the item-level graph.
func GroupedPropose(t *trace.Trace, group []int) (layout.Placement, int64, error) {
	if err := t.Validate(); err != nil {
		return nil, 0, fmt.Errorf("core: GroupedPropose: %w", err)
	}
	if len(group) != t.NumItems {
		return nil, 0, fmt.Errorf("core: group table covers %d items, trace has %d",
			len(group), t.NumItems)
	}
	numGroups := 0
	for item, gid := range group {
		if gid < 0 {
			return nil, 0, fmt.Errorf("core: item %d has negative group %d", item, gid)
		}
		if gid+1 > numGroups {
			numGroups = gid + 1
		}
	}

	// Quotient trace over groups (dropping intra-group repeats is handled
	// by the graph builder, which ignores self-transitions).
	qt := trace.New(t.Name+" (groups)", numGroups)
	for _, a := range t.Accesses {
		if a.Write {
			qt.Write(group[a.Item])
		} else {
			qt.Read(group[a.Item])
		}
	}
	qg, err := graph.FromTrace(qt)
	if err != nil {
		return nil, 0, err
	}
	groupPlacement, _, err := Propose(qt, qg)
	if err != nil {
		return nil, 0, err
	}
	groupOrder, err := groupPlacement.Order()
	if err != nil {
		return nil, 0, err
	}

	// Within each group, members keep their ProgramOrder rank: touched
	// items in first-touch order, then untouched items in ID order.
	base, err := ProgramOrder(t)
	if err != nil {
		return nil, 0, err
	}
	baseOrder, err := base.Order()
	if err != nil {
		return nil, 0, err
	}
	members := make([][]int, numGroups)
	for _, item := range baseOrder {
		members[group[item]] = append(members[group[item]], item)
	}

	p := make(layout.Placement, t.NumItems)
	slot := 0
	for _, gid := range groupOrder {
		for _, item := range members[gid] {
			p[item] = slot
			slot++
		}
	}
	ig, err := graph.FromTrace(t)
	if err != nil {
		return nil, 0, err
	}
	c, err := cost.Linear(ig, p)
	if err != nil {
		return nil, 0, err
	}
	return p, c, nil
}

// UniformGroups builds a group table assigning consecutive runs of
// blockSize items to the same group — the layout of equal-sized arrays
// declared back to back, which is how the workload generators number
// their arrays.
func UniformGroups(n, blockSize int) ([]int, error) {
	if n <= 0 || blockSize <= 0 {
		return nil, fmt.Errorf("core: invalid grouping n=%d block=%d", n, blockSize)
	}
	g := make([]int, n)
	for i := range g {
		g[i] = i / blockSize
	}
	return g, nil
}
