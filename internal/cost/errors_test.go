package cost

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/layout"
)

// Error-path coverage for the evaluators: every malformed input must be
// rejected with an error rather than a panic or silent garbage.

func TestSinglePortErrorPaths(t *testing.T) {
	p := layout.Identity(4)
	if _, err := MultiPort([]int{9}, p, []int{0}, 4); err == nil {
		t.Error("out-of-range item accepted")
	}
	if _, err := MultiPort([]int{-1}, p, []int{0}, 4); err == nil {
		t.Error("negative item accepted")
	}
}

func TestMultiTapeBreakdownErrorPaths(t *testing.T) {
	mp := layout.MultiPlacement{Tape: []int{0}, Slot: []int{0}}
	if _, err := MultiTapeBreakdown([]int{0}, mp, 1, 4, nil); err == nil {
		t.Error("no ports accepted")
	}
	if _, err := MultiTapeBreakdown([]int{0}, mp, 1, 4, []int{9}); err == nil {
		t.Error("bad port accepted")
	}
	if _, err := MultiTapeBreakdown([]int{5}, mp, 1, 4, []int{0}); err == nil {
		t.Error("bad item accepted")
	}
	bad := layout.MultiPlacement{Tape: []int{5}, Slot: []int{0}}
	if _, err := MultiTapeBreakdown([]int{0}, bad, 1, 4, []int{0}); err == nil {
		t.Error("invalid placement accepted")
	}
}

func TestEvaluatorVerifyDetectsDrift(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 5}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluatorCSR(g.Freeze(), layout.Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(); err != nil {
		t.Fatalf("fresh evaluator fails verify: %v", err)
	}
	// A swap applied with a delta priced on another placement corrupts
	// the tracked cost: Verify must flag the divergence between it and
	// a fresh recomputation.
	e.SwapKnown(0, 2, e.SwapDelta(0, 2)+1)
	if err := e.Verify(); err == nil {
		t.Error("Verify missed a cost drift after a mispriced swap")
	}
}

func TestLinearEmptyGraph(t *testing.T) {
	g, err := graph.FromEdges(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Linear(g, layout.Identity(3))
	if err != nil || c != 0 {
		t.Errorf("edgeless Linear = %d, %v", c, err)
	}
}
