package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestTwoOptNeverWorsens(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(25) + 2
		g := randGraph(rng, n, 4*n)
		start, err := layout.FromOrder(rng.Perm(n))
		if err != nil {
			return false
		}
		before, err := cost.Linear(g, start)
		if err != nil {
			return false
		}
		refined, after, err := TwoOpt(g, start, TwoOptOptions{})
		if err != nil {
			return false
		}
		if after > before {
			return false
		}
		actual, err := cost.Linear(g, refined)
		return err == nil && actual == after && refined.Validate(n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTwoOptReachesLocalOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randGraph(rng, 15, 60)
	p, c, err := TwoOpt(g, layout.Identity(15), TwoOptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// No single swap can improve further.
	ev, err := cost.NewEvaluator(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 15; u++ {
		for v := u + 1; v < 15; v++ {
			if d := ev.SwapDelta(u, v); d < 0 {
				t.Fatalf("swap (%d,%d) still improves by %d from cost %d", u, v, d, c)
			}
		}
	}
}

func TestTwoOptWindowRestrictsButHelps(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randGraph(rng, 40, 160)
	start, err := layout.FromOrder(rng.Perm(40))
	if err != nil {
		t.Fatal(err)
	}
	before, err := cost.Linear(g, start)
	if err != nil {
		t.Fatal(err)
	}
	_, windowed, err := TwoOpt(g, start, TwoOptOptions{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, full, err := TwoOpt(g, start, TwoOptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if windowed > before {
		t.Errorf("windowed 2-opt worsened: %d -> %d", before, windowed)
	}
	if full > windowed {
		t.Errorf("full 2-opt (%d) worse than windowed (%d)", full, windowed)
	}
}

func TestTwoOptMaxPassesBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randGraph(rng, 30, 120)
	start, err := layout.FromOrder(rng.Perm(30))
	if err != nil {
		t.Fatal(err)
	}
	// One pass must terminate and not worsen.
	_, c1, err := TwoOpt(g, start, TwoOptOptions{MaxPasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, cFull, err := TwoOpt(g, start, TwoOptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cFull > c1 {
		t.Errorf("converged (%d) worse than single pass (%d)", cFull, c1)
	}
}

func TestTwoOptRejectsBadPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := randGraph(rng, 5, 10)
	if _, _, err := TwoOpt(g, layout.Placement{0, 0, 1, 2, 3}, TwoOptOptions{}); err == nil {
		t.Error("invalid placement accepted")
	}
}

// TestStagesRejectWithPrefix: TwoOpt, Insertion and WindowDP take only a
// permutation of [0, g.N()), and every rejection names the stage,
// whichever way the placement is wrong.
func TestStagesRejectWithPrefix(t *testing.T) {
	g := randGraph(rand.New(rand.NewSource(19)), 5, 10)
	stages := map[string]func(layout.Placement) error{
		"TwoOpt": func(p layout.Placement) error {
			_, _, err := TwoOpt(g, p, TwoOptOptions{})
			return err
		},
		"Insertion": func(p layout.Placement) error {
			_, _, err := Insertion(g, p, 0)
			return err
		},
		"WindowDP": func(p layout.Placement) error {
			_, _, err := WindowDP(g, p, WindowDPOptions{})
			return err
		},
	}
	bad := []layout.Placement{
		nil,
		{0, 0, 1, 2, 3}, // shared slot
		{0, 1, 2, 3, 5}, // slot outside [0,5)
		{0, 1, 2},       // too few items: a permutation of [0,3)
		{0, 1, 2, 4},    // too few items, slots inside [0,5)
		{0, 1, 2, 3, 4, 5},
	}
	for name, run := range stages {
		for _, p := range bad {
			err := run(p)
			if err == nil || !strings.HasPrefix(err.Error(), "core: "+name+": ") {
				t.Errorf("%s(%v) = %v, want an error prefixed %q", name, p, err, "core: "+name+": ")
			}
		}
		if err := run(layout.Identity(5)); err != nil {
			t.Errorf("%s(identity) = %v", name, err)
		}
	}
}

func TestTwoOptDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randGraph(rng, 12, 50)
	start, err := layout.FromOrder(rng.Perm(12))
	if err != nil {
		t.Fatal(err)
	}
	orig := start.Clone()
	if _, _, err := TwoOpt(g, start, TwoOptOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if start[i] != orig[i] {
			t.Fatal("TwoOpt mutated its input")
		}
	}
}

// twoOptReference is the plain TwoOpt that the bound-filtered one must
// reproduce exactly: every slot pair in the window is priced in full with
// the evaluator's SwapDelta, and each improving swap is applied at once.
func twoOptReference(g *graph.Graph, p layout.Placement, opts TwoOptOptions) (layout.Placement, int64, error) {
	ev, err := cost.NewEvaluator(g, p)
	if err != nil {
		return nil, 0, err
	}
	n := g.N()
	maxPasses := opts.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 50 * n
	}
	itemAt, err := p.Order()
	if err != nil {
		return nil, 0, err
	}
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for s1 := 0; s1 < n; s1++ {
			hi := n
			if opts.Window > 0 && s1+opts.Window+1 < n {
				hi = s1 + opts.Window + 1
			}
			for s2 := s1 + 1; s2 < hi; s2++ {
				u, v := itemAt[s1], itemAt[s2]
				if d := ev.SwapDelta(u, v); d < 0 {
					ev.SwapKnown(u, v, d)
					itemAt[s1], itemAt[s2] = v, u
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return ev.Placement(), ev.Cost(), nil
}

// twoOptMatchesReference runs TwoOpt and twoOptReference from start with
// each window and pass budget and reports the first disagreement.
func twoOptMatchesReference(g *graph.Graph, start layout.Placement) error {
	for _, window := range []int{0, 1, 3, 8} {
		for _, passes := range []int{0, 1, 2} {
			opts := TwoOptOptions{Window: window, MaxPasses: passes}
			want, wantCost, err := twoOptReference(g, start, opts)
			if err != nil {
				return err
			}
			got, gotCost, err := TwoOpt(g, start, opts)
			if err != nil {
				return err
			}
			if gotCost != wantCost {
				return fmt.Errorf("%+v: cost %d, reference %d", opts, gotCost, wantCost)
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("%+v: item %d in slot %d, reference slot %d", opts, i, got[i], want[i])
				}
			}
		}
	}
	return nil
}

// TestTwoOptMatchesReference is TwoOpt's oracle: on random graphs (n from
// 2 to 40, some items isolated, weights drawn from a small range so many
// tie) from random starts, TwoOpt must return the reference's placement
// and cost for every window and pass budget.
func TestTwoOptMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(39) + 2
		// Edges only among the first k items leave the rest isolated.
		k := n - rng.Intn(n/2+1)
		maxW := []int{1, 3, 20}[rng.Intn(3)]
		var es []graph.Edge
		for i, edges := 0, rng.Intn(4*n+1); i < edges; i++ {
			if u, v := rng.Intn(k), rng.Intn(k); u != v {
				es = append(es, graph.Edge{U: u, V: v, W: int64(rng.Intn(maxW) + 1)})
			}
		}
		g, err := graph.FromEdges(n, es)
		if err != nil {
			t.Fatal(err)
		}
		start, err := layout.FromOrder(rng.Perm(n))
		if err != nil {
			t.Fatal(err)
		}
		if err := twoOptMatchesReference(g, start); err != nil {
			t.Logf("seed %d, n=%d: %v", seed, n, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTwoOptMatchesReferenceOnTraces runs the same oracle on trace graphs:
// dense Zipf and phased traces, Markov walks and every suite kernel, each
// from both greedy chains, program order and a random permutation.
func TestTwoOptMatchesReferenceOnTraces(t *testing.T) {
	traces := []*trace.Trace{
		workload.Zipf(96, 4096, 1.3, 3),
		workload.Zipf(128, 8192, 1.1, 4),
		workload.Phased(64, 4096, 4, 1.3, 5),
		workload.Phased(112, 8192, 3, 1.3, 6),
		workload.Markov(64, 2048, 7),
		workload.Markov(160, 4096, 8),
	}
	for _, gen := range workload.Suite() {
		traces = append(traces, gen.Make(1))
	}
	for i, tr := range traces {
		t.Run(fmt.Sprintf("%d-%s", i, tr.Name), func(t *testing.T) {
			g, err := graph.FromTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			var starts []layout.Placement
			for _, seed := range []GreedySeed{SeedHeaviestEdge, SeedHeaviestVertex} {
				p, err := GreedyChain(g, seed)
				if err != nil {
					t.Fatal(err)
				}
				starts = append(starts, p)
			}
			po, err := ProgramOrder(tr)
			if err != nil {
				t.Fatal(err)
			}
			random, err := layout.FromOrder(rand.New(rand.NewSource(int64(i))).Perm(g.N()))
			if err != nil {
				t.Fatal(err)
			}
			for _, start := range append(starts, po, random) {
				if err := twoOptMatchesReference(g, start); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestInsertionNeverWorsens(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(15) + 2
		g := randGraph(rng, n, 3*n)
		start, err := layout.FromOrder(rng.Perm(n))
		if err != nil {
			return false
		}
		before, err := cost.Linear(g, start)
		if err != nil {
			return false
		}
		refined, after, err := Insertion(g, start, 3)
		if err != nil {
			return false
		}
		if after > before {
			return false
		}
		actual, err := cost.Linear(g, refined)
		return err == nil && actual == after && refined.Validate(n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestInsertionFixesRelocation(t *testing.T) {
	// Path 0-1-2-3-4 with item 0 exiled to the far end:
	// order [1,2,3,4,0]. A single relocation restores the path order;
	// verify Insertion finds cost 4.
	g := mustGraph(t, 5,
		[3]int{0, 1, 1}, [3]int{1, 2, 1}, [3]int{2, 3, 1}, [3]int{3, 4, 1})
	start, err := layout.FromOrder([]int{1, 2, 3, 4, 0})
	if err != nil {
		t.Fatal(err)
	}
	_, c, err := Insertion(g, start, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c != 4 {
		t.Errorf("Insertion cost = %d, want 4", c)
	}
}

// insertionReference is the brute-force Insertion that the sweep-priced
// one must reproduce exactly: every candidate is applied, the whole graph
// is re-costed with Linear, and the move is undone. Candidate order and
// the strict first-best tie-break are the same as Insertion's.
func insertionReference(g *graph.Graph, p layout.Placement, maxPasses int) (layout.Placement, int64, error) {
	if err := p.Validate(g.N()); err != nil {
		return nil, 0, err
	}
	n := g.N()
	if maxPasses <= 0 {
		maxPasses = 10
	}
	cur := p.Clone()
	order, err := cur.Order()
	if err != nil {
		return nil, 0, err
	}
	curCost, err := cost.Linear(g, cur)
	if err != nil {
		return nil, 0, err
	}

	apply := func(from, to int) {
		item := order[from]
		if from < to {
			copy(order[from:to], order[from+1:to+1])
		} else {
			copy(order[to+1:from+1], order[to:from])
		}
		order[to] = item
		for s, it := range order {
			cur[it] = s
		}
	}

	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for item := 0; item < n; item++ {
			from := cur[item]
			var cands []int
			cols, _ := g.Row(item)
			for _, v := range cols {
				for _, d := range []int{-1, 0, 1} {
					if to := cur[v] + d; to >= 0 && to < n && to != from {
						cands = append(cands, to)
					}
				}
			}
			bestTo, bestCost := -1, curCost
			for _, to := range cands {
				apply(from, to)
				cc, err := cost.Linear(g, cur)
				if err != nil {
					return nil, 0, err
				}
				if cc < bestCost {
					bestTo, bestCost = to, cc
				}
				apply(to, from) // undo
			}
			if bestTo >= 0 {
				apply(from, bestTo)
				curCost = bestCost
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cur, curCost, nil
}

// insertionMatchesReference runs Insertion and insertionReference from
// start with each pass budget and reports the first disagreement.
func insertionMatchesReference(g *graph.Graph, start layout.Placement) error {
	for _, passes := range []int{1, 3, 10} {
		want, wantCost, err := insertionReference(g, start, passes)
		if err != nil {
			return err
		}
		got, gotCost, err := Insertion(g, start, passes)
		if err != nil {
			return err
		}
		if gotCost != wantCost {
			return fmt.Errorf("maxPasses=%d: cost %d, reference %d", passes, gotCost, wantCost)
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("maxPasses=%d: item %d in slot %d, reference slot %d", passes, i, got[i], want[i])
			}
		}
	}
	return nil
}

// TestInsertionMatchesReference is Insertion's oracle: on random graphs
// (n from 2 to 40, some items isolated) from random starts, the
// sweep-priced Insertion must return the reference's placement and cost
// for every pass budget.
func TestInsertionMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(39) + 2
		// Edges only among the first k items leave the rest isolated.
		k := n - rng.Intn(n/2+1)
		var es []graph.Edge
		for i, edges := 0, rng.Intn(4*n+1); i < edges; i++ {
			if u, v := rng.Intn(k), rng.Intn(k); u != v {
				es = append(es, graph.Edge{U: u, V: v, W: int64(rng.Intn(20) + 1)})
			}
		}
		g, err := graph.FromEdges(n, es)
		if err != nil {
			t.Fatal(err)
		}
		start, err := layout.FromOrder(rng.Perm(n))
		if err != nil {
			t.Fatal(err)
		}
		if err := insertionMatchesReference(g, start); err != nil {
			t.Logf("seed %d, n=%d: %v", seed, n, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestInsertionMatchesReferenceOnTraces runs the same oracle on trace
// graphs: Zipf, phased and Markov traces from the greedy chain and from a
// random permutation, and every suite kernel from the greedy chain (a
// random start on the dense kernels makes the brute force take over a
// minute under -race).
func TestInsertionMatchesReferenceOnTraces(t *testing.T) {
	traces := []*trace.Trace{
		workload.Zipf(48, 2048, 1.3, 3),
		workload.Zipf(64, 2048, 1.1, 4),
		workload.Phased(40, 2048, 4, 1.3, 5),
		workload.Phased(56, 2048, 3, 1.3, 6),
		workload.Markov(64, 2048, 7),
		workload.Markov(96, 3072, 8),
	}
	randomStarts := len(traces)
	for _, gen := range workload.Suite() {
		traces = append(traces, gen.Make(1))
	}
	for i, tr := range traces {
		t.Run(fmt.Sprintf("%d-%s", i, tr.Name), func(t *testing.T) {
			g, err := graph.FromTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			greedy, err := GreedyChain(g, SeedHeaviestEdge)
			if err != nil {
				t.Fatal(err)
			}
			starts := []layout.Placement{greedy}
			if i < randomStarts {
				random, err := layout.FromOrder(rand.New(rand.NewSource(int64(i))).Perm(g.N()))
				if err != nil {
					t.Fatal(err)
				}
				starts = append(starts, random)
			}
			for _, start := range starts {
				if err := insertionMatchesReference(g, start); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestAnnealNeverWorseThanStart(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		g := randGraph(rng, n, 4*n)
		start, err := layout.FromOrder(rng.Perm(n))
		if err != nil {
			return false
		}
		before, err := cost.Linear(g, start)
		if err != nil {
			return false
		}
		refined, after, err := Anneal(g, start, AnnealOptions{Seed: seed, Iterations: 300 * n})
		if err != nil {
			return false
		}
		if after > before { // Anneal returns best-visited, start included
			return false
		}
		actual, err := cost.Linear(g, refined)
		return err == nil && actual == after
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAnnealDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := randGraph(rng, 18, 70)
	a, ca, err := Anneal(g, layout.Identity(18), AnnealOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, cb, err := Anneal(g, layout.Identity(18), AnnealOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb {
		t.Errorf("same seed different costs: %d vs %d", ca, cb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed different placements")
		}
	}
}

func TestAnnealTinyInstances(t *testing.T) {
	g := mustGraph(t, 1)
	p, c, err := Anneal(g, layout.Identity(1), AnnealOptions{Seed: 1})
	if err != nil || c != 0 || len(p) != 1 {
		t.Errorf("n=1: %v %d %v", p, c, err)
	}
	g2 := mustGraph(t, 2, [3]int{0, 1, 5})
	_, c2, err := Anneal(g2, layout.Identity(2), AnnealOptions{Seed: 1})
	if err != nil || c2 != 5 {
		t.Errorf("n=2: cost %d err %v, want 5", c2, err)
	}
}

func TestGreedyTwoOptBeatsGreedyAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randGraph(rng, 40, 200)
	gp, err := GreedyChain(g, SeedHeaviestEdge)
	if err != nil {
		t.Fatal(err)
	}
	gc, err := cost.Linear(g, gp)
	if err != nil {
		t.Fatal(err)
	}
	_, tc, err := GreedyTwoOpt(g, TwoOptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tc > gc {
		t.Errorf("greedy+2opt (%d) worse than greedy (%d)", tc, gc)
	}
}
