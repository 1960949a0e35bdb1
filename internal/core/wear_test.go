package core

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/dwm"
	"repro/internal/workload"
)

func TestMultiTapeBreakdownSumsToTotal(t *testing.T) {
	tr := workload.FIR(16, 64)
	tapes, tapeLen := 4, 10
	ports := dwm.SpreadPorts(tapeLen, 1)
	mp, total, err := ProposeMultiTape(tr, tapes, tapeLen, ports)
	if err != nil {
		t.Fatal(err)
	}
	per, err := cost.MultiTapeBreakdown(tr.Items(), mp, tapes, tapeLen, ports)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, c := range per {
		sum += c
	}
	if sum != total {
		t.Errorf("breakdown sum %d != total %d", sum, total)
	}
}

func TestWearBalancedReducesMaxTapeWear(t *testing.T) {
	// A Zipf workload concentrates traffic; wear balancing must reduce
	// the hottest tape's shifts relative to the min-total pipeline, and
	// never report numbers inconsistent with the evaluator.
	tr := workload.Zipf(48, 8192, 1.3, 2)
	tapes, tapeLen := 4, 16 // 64 slots for 48 items: room to move
	ports := dwm.SpreadPorts(tapeLen, 1)
	seq := tr.Items()

	_, baseTotal, err := ProposeMultiTape(tr, tapes, tapeLen, ports)
	if err != nil {
		t.Fatal(err)
	}
	baseMP, _, err := ProposeMultiTape(tr, tapes, tapeLen, ports)
	if err != nil {
		t.Fatal(err)
	}
	basePer, err := cost.MultiTapeBreakdown(seq, baseMP, tapes, tapeLen, ports)
	if err != nil {
		t.Fatal(err)
	}
	var baseMax int64
	for _, c := range basePer {
		if c > baseMax {
			baseMax = c
		}
	}

	mp, total, maxTape, err := WearBalancedMultiTape(tr, tapes, tapeLen, ports)
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Validate(tapes, tapeLen); err != nil {
		t.Fatal(err)
	}
	per, err := cost.MultiTapeBreakdown(seq, mp, tapes, tapeLen, ports)
	if err != nil {
		t.Fatal(err)
	}
	var gotTotal, gotMax int64
	for _, c := range per {
		gotTotal += c
		if c > gotMax {
			gotMax = c
		}
	}
	if gotTotal != total || gotMax != maxTape {
		t.Errorf("reported total/max %d/%d != evaluated %d/%d", total, maxTape, gotTotal, gotMax)
	}
	if maxTape > baseMax {
		t.Errorf("wear balancing increased max wear: %d vs %d", maxTape, baseMax)
	}
	_ = baseTotal
}

func TestWearBalancedRejectsOverfull(t *testing.T) {
	tr := workload.FIR(8, 8) // 16 items
	if _, _, _, err := WearBalancedMultiTape(tr, 2, 4, []int{0}); err == nil {
		t.Error("overfull device accepted")
	}
}

func TestWearBalancedExactFitStillWorks(t *testing.T) {
	// No free slots: refinement cannot move anything, but the call must
	// succeed and match ProposeMultiTape.
	tr := workload.FIR(8, 16) // 16 items
	tapes, tapeLen := 2, 8
	ports := dwm.SpreadPorts(tapeLen, 1)
	_, wantTotal, err := ProposeMultiTape(tr, tapes, tapeLen, ports)
	if err != nil {
		t.Fatal(err)
	}
	_, total, maxTape, err := WearBalancedMultiTape(tr, tapes, tapeLen, ports)
	if err != nil {
		t.Fatal(err)
	}
	if total != wantTotal {
		t.Errorf("exact fit total %d != propose %d", total, wantTotal)
	}
	if maxTape > total {
		t.Errorf("max %d exceeds total %d", maxTape, total)
	}
}
