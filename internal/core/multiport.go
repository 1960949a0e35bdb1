package core

import (
	"fmt"
	"math/rand"

	"repro/internal/cost"
	"repro/internal/layout"
	"repro/internal/trace"
)

// PortAwareOptions tunes the multi-port placement refinement.
type PortAwareOptions struct {
	// Seed drives the proposal randomness.
	Seed int64
}

// portAwareProposals is PortAware's hill-climbing budget. Each proposal
// re-evaluates the exact sequence cost, O(trace length).
const portAwareProposals = 2000

// PortAware computes a placement for a single tape with multiple ports by
// refining graph-driven starts against the exact sequence cost.
//
// The Linear objective ignores ports, so for k > 1 ports the pipeline is:
// build the greedy+2-opt chain, try two instantiations — one contiguous
// block centered on the tape and the chain split into k segments centered
// on the k ports — and hill-climb the better one with random item swaps
// and moves into free slots, scored by cost.MultiPort on the real access
// sequence. For k = 1 this gracefully reduces to centering the chain on
// the port plus refinement.
func PortAware(t *trace.Trace, tapeLen int, ports []int, opts PortAwareOptions) (layout.Placement, int64, error) {
	if err := t.Validate(); err != nil {
		return nil, 0, fmt.Errorf("core: PortAware: %w", err)
	}
	n := t.NumItems
	if tapeLen < n {
		return nil, 0, fmt.Errorf("core: %d items cannot fit on a %d-slot tape", n, tapeLen)
	}
	if len(ports) == 0 {
		return nil, 0, fmt.Errorf("core: PortAware: no ports")
	}
	g, err := traceGraph(t)
	if err != nil {
		return nil, 0, err
	}
	chainP, _, err := Propose(t, g)
	if err != nil {
		return nil, 0, err
	}
	chain, err := chainP.Order()
	if err != nil {
		return nil, 0, err
	}
	seq := t.Items()

	evaluate := func(p layout.Placement) (int64, error) {
		return cost.MultiPort(seq, p, ports, tapeLen)
	}

	// Candidate 1: contiguous block centered on the tape middle.
	cand1, err := CenterOnPort(chainP, tapeLen, tapeLen/2)
	if err != nil {
		return nil, 0, err
	}
	best := cand1
	bestCost, err := evaluate(cand1)
	if err != nil {
		return nil, 0, err
	}

	// Candidate 2: chain split into len(ports) segments, each centered on
	// its port (only distinct from candidate 1 when k > 1).
	if len(ports) > 1 {
		if cand2, err2 := segmentedStart(chain, tapeLen, ports); err2 == nil {
			if c, err2 := evaluate(cand2); err2 == nil && c < bestCost {
				best, bestCost = cand2, c
			}
		}
	}

	// Hill-climb with the exact objective.
	rng := rand.New(rand.NewSource(opts.Seed))
	cur := best.Clone()
	curCost := bestCost
	occupied := make([]int, tapeLen) // slot -> item, -1 if free
	for i := range occupied {
		occupied[i] = -1
	}
	for item, s := range cur {
		occupied[s] = item
	}
	for i := 0; i < portAwareProposals; i++ {
		u := rng.Intn(n)
		s := rng.Intn(tapeLen)
		su := cur[u]
		if s == su {
			continue
		}
		v := occupied[s]
		// Apply: swap with occupant, or move to a free slot.
		cur[u] = s
		occupied[s] = u
		if v >= 0 {
			cur[v] = su
			occupied[su] = v
		} else {
			occupied[su] = -1
		}
		c, err := evaluate(cur)
		if err != nil {
			return nil, 0, err
		}
		if c < curCost {
			curCost = c
			continue
		}
		// Undo.
		cur[u] = su
		occupied[su] = u
		if v >= 0 {
			cur[v] = s
			occupied[s] = v
		} else {
			occupied[s] = -1
		}
	}
	if curCost < bestCost {
		best, bestCost = cur, curCost
	}
	return best, bestCost, nil
}

// segmentedStart splits the chain order into len(ports) contiguous
// segments and centers segment i on ports[i].
func segmentedStart(chain []int, tapeLen int, ports []int) (layout.Placement, error) {
	n := len(chain)
	k := len(ports)
	p := make(layout.Placement, n)
	used := make([]bool, tapeLen)
	segLo := 0
	for i := 0; i < k; i++ {
		segHi := (i + 1) * n / k
		seg := chain[segLo:segHi]
		base := ports[i] - len(seg)/2
		if base < 0 {
			base = 0
		}
		if base+len(seg) > tapeLen {
			base = tapeLen - len(seg)
		}
		for j, item := range seg {
			slot := base + j
			// Resolve collisions with earlier segments by scanning for
			// the next free slot (wrapping).
			for used[slot] {
				slot = (slot + 1) % tapeLen
			}
			used[slot] = true
			p[item] = slot
		}
		segLo = segHi
	}
	if err := p.Validate(tapeLen); err != nil {
		return nil, err
	}
	return p, nil
}
