package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/trace"
)

// Partition assigns each item to a tape: Partition[item] = tape index.
type Partition []int

// Validate checks that the partition uses valid tape indices and respects
// the per-tape capacity.
func (pt Partition) Validate(tapes, capacity int) error {
	if len(pt) == 0 {
		return fmt.Errorf("core: empty partition")
	}
	load := make([]int, tapes)
	for item, tp := range pt {
		if tp < 0 || tp >= tapes {
			return fmt.Errorf("core: item %d on tape %d outside [0,%d)", item, tp, tapes)
		}
		load[tp]++
		if load[tp] > capacity {
			return fmt.Errorf("core: tape %d exceeds capacity %d", tp, capacity)
		}
	}
	return nil
}

// RoundRobinPartition deals items to tapes cyclically by item ID.
func RoundRobinPartition(n, tapes int) Partition {
	pt := make(Partition, n)
	for i := range pt {
		pt[i] = i % tapes
	}
	return pt
}

// HashPartition spreads items over tapes with a multiplicative hash,
// modeling an address-interleaved memory controller with no placement
// intelligence. When the hash overloads a tape the item spills to the next
// tape with room, so the result always respects capacity.
func HashPartition(n, tapes, capacity int) (Partition, error) {
	if n > tapes*capacity {
		return nil, fmt.Errorf("core: %d items cannot fit on %d tapes of capacity %d",
			n, tapes, capacity)
	}
	const mix = uint64(0x9E3779B97F4A7C15)
	pt := make(Partition, n)
	load := make([]int, tapes)
	for i := range pt {
		h := (uint64(i) + 1) * mix
		h ^= h >> 29
		tp := int(h % uint64(tapes))
		for load[tp] >= capacity {
			tp = (tp + 1) % tapes
		}
		pt[i] = tp
		load[tp]++
	}
	return pt, nil
}

// ContiguousPartition fills tapes with consecutive blocks of items in
// first-touch order, the layout a naive allocator produces.
func ContiguousPartition(t *trace.Trace, tapes, capacity int) (Partition, error) {
	if t.NumItems > tapes*capacity {
		return nil, fmt.Errorf("core: %d items cannot fit on %d tapes of capacity %d",
			t.NumItems, tapes, capacity)
	}
	po, err := ProgramOrder(t)
	if err != nil {
		return nil, err
	}
	// po[item] is the first-touch rank; block rank/capacity.
	pt := make(Partition, t.NumItems)
	perTape := (t.NumItems + tapes - 1) / tapes
	if perTape > capacity {
		perTape = capacity
	}
	for item, rank := range po {
		pt[item] = rank / perTape
	}
	return pt, nil
}

// partitionRefinePasses bounds AffinityPartition's refinement passes.
const partitionRefinePasses = 4

// AffinityPartition is the proposed multi-tape partitioner. Cross-tape
// transitions cost no shifts (each tape keeps its own head), so the
// partition wants frequently alternating items on *different* tapes:
// minimize the total intra-tape transition weight subject to per-tape
// capacity. Greedy construction assigns items in descending weighted
// degree to the tape where they have the least affinity; Kernighan–Lin
// style refinement then applies improving single-item moves and pairwise
// swaps until a pass yields nothing, for at most partitionRefinePasses
// passes.
func AffinityPartition(g *graph.Graph, tapes, capacity int) (Partition, error) {
	n := g.N()
	if tapes <= 0 {
		return nil, fmt.Errorf("core: need at least one tape, got %d", tapes)
	}
	if n > tapes*capacity {
		return nil, fmt.Errorf("core: %d items cannot fit on %d tapes of capacity %d",
			n, tapes, capacity)
	}
	pt := make(Partition, n)
	for i := range pt {
		pt[i] = -1
	}
	load := make([]int, tapes)

	// W(v, tape) = affinity of v to the items already on tape. This is
	// the innermost loop of both construction and refinement (the swap
	// pass calls it O(n²) times), so it scans the flat CSR row.
	affinity := func(v, tape int) int64 {
		var s int64
		cols, ws := g.Row(v)
		for i, u := range cols {
			if pt[u] == tape {
				s += ws[i]
			}
		}
		return s
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		wa, wb := g.WeightedDegree(order[a]), g.WeightedDegree(order[b])
		if wa != wb {
			return wa > wb
		}
		return order[a] < order[b]
	})
	for _, v := range order {
		best, bestAff := -1, int64(0)
		for tp := 0; tp < tapes; tp++ {
			if load[tp] >= capacity {
				continue
			}
			a := affinity(v, tp)
			if best == -1 || a < bestAff ||
				(a == bestAff && load[tp] < load[best]) {
				best, bestAff = tp, a
			}
		}
		pt[v] = best
		load[best]++
	}

	for pass := 0; pass < partitionRefinePasses; pass++ {
		improved := false
		// Single-item moves.
		for v := 0; v < n; v++ {
			cur := affinity(v, pt[v])
			for tp := 0; tp < tapes; tp++ {
				if tp == pt[v] || load[tp] >= capacity {
					continue
				}
				if affinity(v, tp) < cur {
					load[pt[v]]--
					pt[v] = tp
					load[tp]++
					cur = affinity(v, tp)
					improved = true
				}
			}
		}
		// Pairwise swaps across tapes.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				tu, tv := pt[u], pt[v]
				if tu == tv {
					continue
				}
				delta := affinity(u, tv) + affinity(v, tu) - 2*g.Weight(u, v) -
					affinity(u, tu) - affinity(v, tv)
				if delta < 0 {
					pt[u], pt[v] = tv, tu
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return pt, nil
}

// ArrangePartition composes a partition with per-tape placement: for each
// tape it extracts the restricted access subsequence (consecutive
// same-tape accesses, which is what that tape's head actually serves),
// builds its transition graph, arranges it with greedy+2-opt, and centers
// the block on the tape's first port. The result is a complete
// MultiPlacement for the device.
func ArrangePartition(t *trace.Trace, pt Partition, tapes, tapeLen int, ports []int) (layout.MultiPlacement, error) {
	if err := t.Validate(); err != nil {
		return layout.MultiPlacement{}, fmt.Errorf("core: %w", err)
	}
	if len(pt) != t.NumItems {
		return layout.MultiPlacement{}, fmt.Errorf("core: partition covers %d items, trace has %d",
			len(pt), t.NumItems)
	}
	if err := pt.Validate(tapes, tapeLen); err != nil {
		return layout.MultiPlacement{}, err
	}
	if len(ports) == 0 {
		return layout.MultiPlacement{}, fmt.Errorf("core: no ports")
	}
	mp := layout.NewMultiPlacement(t.NumItems)
	for tp := 0; tp < tapes; tp++ {
		// Items on this tape.
		var items []int
		for v, x := range pt {
			if x == tp {
				items = append(items, v)
			}
		}
		if len(items) == 0 {
			continue
		}
		// Restricted subsequence: project the trace onto this tape's
		// items and renumber.
		local := make(map[int]int, len(items))
		for i, v := range items {
			local[v] = i
		}
		sub := trace.New(t.Name, len(items))
		for _, a := range t.Accesses {
			if li, ok := local[a.Item]; ok {
				if a.Write {
					sub.Write(li)
				} else {
					sub.Read(li)
				}
			}
		}
		var p layout.Placement
		if sub.Len() == 0 {
			p = layout.Identity(len(items))
		} else {
			g, err := traceGraph(sub)
			if err != nil {
				return layout.MultiPlacement{}, err
			}
			if p, _, err = GreedyTwoOpt(g, TwoOptOptions{}); err != nil {
				return layout.MultiPlacement{}, err
			}
		}
		p, err := CenterOnPort(p, tapeLen, ports[0])
		if err != nil {
			return layout.MultiPlacement{}, err
		}
		for li, v := range items {
			mp.Tape[v] = tp
			mp.Slot[v] = p[li]
		}
	}
	// Items on tapes with no accesses keep their arranged slots; fully
	// unassigned items cannot occur because the partition covers all.
	return mp, nil
}
