package core

import (
	"sync"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/trace"
)

// Propose is the headline single-tape pipeline of the reproduction: a
// multi-start search that refines several constructive seeds — the greedy
// chain (both seeding rules) and the program-order layout — with 2-opt,
// polishes the winner with insertion moves, and returns the best. Seeding
// with program order guarantees the result never loses to the primary
// baseline, which matters on kernels whose first-touch order is already
// near-optimal (pointer chase, zigzag scans, streaming stencils).
func Propose(t *trace.Trace, g *graph.Graph) (layout.Placement, int64, error) {
	var seeds []layout.Placement

	if p, err := GreedyChain(g, SeedHeaviestEdge); err == nil {
		seeds = append(seeds, p)
	} else {
		return nil, 0, err
	}
	if p, err := GreedyChain(g, SeedHeaviestVertex); err == nil {
		seeds = append(seeds, p)
	} else {
		return nil, 0, err
	}
	if p, err := ProgramOrder(t); err == nil {
		seeds = append(seeds, p)
	} else {
		return nil, 0, err
	}

	// Refine the seeds concurrently — they are independent — and pick the
	// winner deterministically by (cost, seed order).
	type refined struct {
		p   layout.Placement
		c   int64
		err error
	}
	results := make([]refined, len(seeds))
	var wg sync.WaitGroup
	for i, s := range seeds {
		wg.Add(1)
		//dwmlint:ignore barego seed refinements are independent, write to index-i slots, and the winner is picked by (cost, seed order) — order-preserving by construction
		go func(i int, s layout.Placement) {
			defer wg.Done()
			p, c, err := TwoOpt(g, s, TwoOptOptions{})
			results[i] = refined{p: p, c: c, err: err}
		}(i, s)
	}
	wg.Wait()
	var best layout.Placement
	var bestCost int64 = -1
	for _, r := range results {
		if r.err != nil {
			return nil, 0, r.err
		}
		if bestCost < 0 || r.c < bestCost {
			best, bestCost = r.p, r.c
		}
	}
	// Polish with relocation moves, which 2-opt cannot express, then one
	// more 2-opt pass in case the relocations opened new swaps, then the
	// sliding-window exact pass for multi-item rotations.
	p, c, err := Insertion(g, best, 3)
	if err != nil {
		return nil, 0, err
	}
	if c < bestCost {
		best, bestCost = p, c
	}
	p, c, err = TwoOpt(g, best, TwoOptOptions{})
	if err != nil {
		return nil, 0, err
	}
	if c < bestCost {
		best, bestCost = p, c
	}
	p, c, err = WindowDP(g, best, WindowDPOptions{Window: windowForSize(g.N()), MaxPasses: 4})
	if err != nil {
		return nil, 0, err
	}
	if c < bestCost {
		best, bestCost = p, c
	}
	return best, bestCost, nil
}

// windowForSize picks the WindowDP width: the full exact width for tiny
// instances, 6 otherwise (E9 ablates the choice).
func windowForSize(n int) int {
	if n < 6 {
		if n < 2 {
			return 2
		}
		return n
	}
	return 6
}

// ProposeMultiTape is the headline multi-tape pipeline: it builds a
// portfolio of partitions (contiguous, round robin, affinity), arranges
// each with the per-tape pipeline, also considers the naive packed layout,
// scores every candidate with the exact multi-tape evaluator on the real
// access sequence, and returns the cheapest. Scoring with the exact
// evaluator makes the choice robust to the cases where the affinity proxy
// (intra-tape transition weight) mispredicts the restricted-subsequence
// cost.
func ProposeMultiTape(t *trace.Trace, tapes, tapeLen int, ports []int) (layout.MultiPlacement, int64, error) {
	g, err := traceGraph(t)
	if err != nil {
		return layout.MultiPlacement{}, 0, err
	}
	seq := t.Items()

	var parts []Partition
	if pt, err := ContiguousPartition(t, tapes, tapeLen); err == nil {
		parts = append(parts, pt)
	} else {
		return layout.MultiPlacement{}, 0, err
	}
	parts = append(parts, RoundRobinPartition(t.NumItems, tapes))
	if pt, err := HashPartition(t.NumItems, tapes, tapeLen); err == nil {
		parts = append(parts, pt)
	} else {
		return layout.MultiPlacement{}, 0, err
	}
	if pt, err := AffinityPartition(g, tapes, tapeLen); err == nil {
		parts = append(parts, pt)
	} else {
		return layout.MultiPlacement{}, 0, err
	}

	var best layout.MultiPlacement
	var bestCost int64 = -1
	consider := func(mp layout.MultiPlacement) error {
		c, err := cost.MultiTape(seq, mp, tapes, tapeLen, ports)
		if err != nil {
			return err
		}
		if bestCost < 0 || c < bestCost {
			best, bestCost = mp, c
		}
		return nil
	}
	for _, pt := range parts {
		mp, err := ArrangePartition(t, pt, tapes, tapeLen, ports)
		if err != nil {
			return layout.MultiPlacement{}, 0, err
		}
		if err := consider(mp); err != nil {
			return layout.MultiPlacement{}, 0, err
		}
	}
	// The portfolio covers {contiguous, roundrobin, hash, affinity}
	// partitions; the naive packed-contiguous layout doubles as a final
	// candidate so the proposed pipeline can never lose to it.
	if mp, err := PackedPlacement(t, parts[0], tapes); err == nil {
		if err := consider(mp); err != nil {
			return layout.MultiPlacement{}, 0, err
		}
	} else {
		return layout.MultiPlacement{}, 0, err
	}
	return best, bestCost, nil
}

// PackedPlacement lays each tape's items out in consecutive slots in
// first-touch order, the layout of a placement-unaware allocator. It is
// both a baseline and a portfolio candidate for ProposeMultiTape.
func PackedPlacement(t *trace.Trace, pt Partition, tapes int) (layout.MultiPlacement, error) {
	po, err := ProgramOrder(t)
	if err != nil {
		return layout.MultiPlacement{}, err
	}
	order := make([]int, len(po))
	for item, rank := range po {
		order[rank] = item
	}
	mp := layout.NewMultiPlacement(t.NumItems)
	next := make([]int, tapes)
	for _, item := range order {
		tp := pt[item]
		mp.Tape[item] = tp
		mp.Slot[item] = next[tp]
		next[tp]++
	}
	return mp, nil
}
