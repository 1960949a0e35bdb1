package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/trace"
)

// ExamplePropose places a tiny trace and shows the shift-cost improvement
// over the first-touch baseline.
func ExamplePropose() {
	// First-touch order separates the hot pair {0,3} by two slots, then
	// the pair alternates constantly.
	tr := trace.New("demo", 4)
	for _, it := range []int{0, 1, 2, 3} {
		tr.Read(it)
	}
	for i := 0; i < 10; i++ {
		tr.Read(0)
		tr.Read(3)
	}
	g, err := graph.FromTrace(tr)
	if err != nil {
		log.Fatal(err)
	}
	baseline, err := core.ProgramOrder(tr)
	if err != nil {
		log.Fatal(err)
	}
	baseCost, err := cost.Linear(g, baseline)
	if err != nil {
		log.Fatal(err)
	}
	_, propCost, err := core.Propose(tr, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("program order: %d shifts\n", baseCost)
	fmt.Printf("proposed:      %d shifts\n", propCost)
	// Output:
	// program order: 63 shifts
	// proposed:      25 shifts
}

// ExampleGreedyChain shows the constructive heuristic putting the
// heaviest transition pair at adjacent slots.
func ExampleGreedyChain() {
	g, err := graph.FromEdges(4, []graph.Edge{
		{U: 0, V: 3, W: 100}, // hot pair
		{U: 1, V: 2, W: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	p, err := core.GreedyChain(g, core.SeedHeaviestEdge)
	if err != nil {
		log.Fatal(err)
	}
	d := p[0] - p[3]
	if d < 0 {
		d = -d
	}
	fmt.Printf("distance between hot pair: %d\n", d)
	// Output:
	// distance between hot pair: 1
}

// ExampleExactDP solves a small instance optimally.
func ExampleExactDP() {
	// Unit 4-cycle: one edge must stretch across the line.
	g, err := graph.FromEdges(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 3, V: 0, W: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	_, opt, err := core.ExactDP(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal MinLA cost: %d\n", opt)
	// Output:
	// optimal MinLA cost: 6
}
