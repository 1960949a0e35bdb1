package core

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/layout"
	"repro/internal/trace"
)

// WearBalancedMultiTape extends the multi-tape pipeline with shift-wear
// leveling: every shift stresses all domain walls on its wire, so a
// placement that funnels traffic onto one tape wears that wire out first
// even when total shifts are minimal. Starting from the ProposeMultiTape
// result, the refinement repeatedly moves an item off the currently
// hottest tape (by exact per-tape shift counts) into the free slot nearest
// the port of a cooler tape, accepting moves that reduce the maximum
// per-tape wear, with ties broken by total shifts. The refinement runs
// at most 4 moves per item.
//
// It returns the placement together with its total and maximum per-tape
// shift counts.
func WearBalancedMultiTape(t *trace.Trace, tapes, tapeLen int, ports []int) (layout.MultiPlacement, int64, int64, error) {
	if tapes*tapeLen <= t.NumItems {
		// No free slots anywhere: moves are impossible (the pipeline
		// needs at least one spare slot to migrate into).
		if tapes*tapeLen < t.NumItems {
			return layout.MultiPlacement{}, 0, 0, fmt.Errorf(
				"core: %d items cannot fit on %d tapes of %d slots", t.NumItems, tapes, tapeLen)
		}
	}
	mp, _, err := ProposeMultiTape(t, tapes, tapeLen, ports)
	if err != nil {
		return layout.MultiPlacement{}, 0, 0, err
	}
	seq := t.Items()

	evaluate := func(m layout.MultiPlacement) (total, maxTape int64, err error) {
		per, err := cost.MultiTapeBreakdown(seq, m, tapes, tapeLen, ports)
		if err != nil {
			return 0, 0, err
		}
		for _, c := range per {
			total += c
			if c > maxTape {
				maxTape = c
			}
		}
		return total, maxTape, nil
	}

	curTotal, curMax, err := evaluate(mp)
	if err != nil {
		return layout.MultiPlacement{}, 0, 0, err
	}

	// occupied[tape][slot] tracks free slots.
	occupied := make([][]bool, tapes)
	for tp := range occupied {
		occupied[tp] = make([]bool, tapeLen)
	}
	for item := range mp.Tape {
		occupied[mp.Tape[item]][mp.Slot[item]] = true
	}
	freeSlotNearPort := func(tp int) int {
		q := ports[0]
		for d := 0; d < tapeLen; d++ {
			if s := q - d; s >= 0 && !occupied[tp][s] {
				return s
			}
			if s := q + d; s < tapeLen && !occupied[tp][s] {
				return s
			}
		}
		return -1
	}

	for move := 0; move < 4*t.NumItems; move++ {
		per, err := cost.MultiTapeBreakdown(seq, mp, tapes, tapeLen, ports)
		if err != nil {
			return layout.MultiPlacement{}, 0, 0, err
		}
		hottest := 0
		for tp, c := range per {
			if c > per[hottest] {
				hottest = tp
			}
		}
		// Try moving each item currently on the hottest tape to the free
		// slot nearest the port of every other tape; keep the best move.
		bestItem, bestTape, bestSlot := -1, -1, -1
		bestTotal, bestMax := curTotal, curMax
		for item := range mp.Tape {
			if mp.Tape[item] != hottest {
				continue
			}
			oldTape, oldSlot := mp.Tape[item], mp.Slot[item]
			for tp := 0; tp < tapes; tp++ {
				if tp == hottest {
					continue
				}
				slot := freeSlotNearPort(tp)
				if slot < 0 {
					continue
				}
				mp.Tape[item], mp.Slot[item] = tp, slot
				total, maxT, err := evaluate(mp)
				mp.Tape[item], mp.Slot[item] = oldTape, oldSlot
				if err != nil {
					return layout.MultiPlacement{}, 0, 0, err
				}
				if maxT < bestMax || (maxT == bestMax && total < bestTotal) {
					bestItem, bestTape, bestSlot = item, tp, slot
					bestTotal, bestMax = total, maxT
				}
			}
		}
		if bestItem < 0 || bestMax >= curMax {
			break // no move reduces the maximum wear
		}
		occupied[mp.Tape[bestItem]][mp.Slot[bestItem]] = false
		mp.Tape[bestItem], mp.Slot[bestItem] = bestTape, bestSlot
		occupied[bestTape][bestSlot] = true
		curTotal, curMax = bestTotal, bestMax
	}
	return mp, curTotal, curMax, nil
}
