package graph

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/trace"
)

func mustFromEdges(t testing.TB, n int, es ...Edge) *Graph {
	t.Helper()
	g, err := FromEdges(n, es)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := FromEdges(n, nil); err == nil {
			t.Errorf("FromEdges(%d, nil) accepted", n)
		}
	}
}

// The read accessors panic on a vertex outside [0,n), in either
// argument and at either end of the range; bad edge inputs are errors
// from FromEdges and ApplyDeltas instead (TestFromEdgesErrors,
// TestApplyDeltasValidation).
func TestPanics(t *testing.T) {
	c := mustFromEdges(t, 3, Edge{U: 0, V: 1, W: 1}).Freeze()
	cases := []func(){
		func() { c.Weight(-1, 1) },
		func() { c.Weight(3, 1) },
		func() { c.Weight(1, -1) },
		func() { c.Weight(1, 3) },
		func() { c.Row(3) },
		func() { c.Degree(-1) },
		func() { c.WeightedDegree(3) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// FromEdges rejects a vertex count it cannot hold and each of its three
// bad inputs, and accepts a valid list that exercises all three limits.
func TestFromEdgesErrors(t *testing.T) {
	if _, err := FromEdges(MaxVertices, nil); !errors.Is(err, ErrTooManyVertices) {
		t.Errorf("FromEdges at the limit: err = %v, want ErrTooManyVertices", err)
	}
	for name, es := range map[string][]Edge{
		"vertex below range": {{U: -1, V: 1, W: 1}},
		"vertex above range": {{U: 0, V: 3, W: 1}},
		"self loop":          {{U: 2, V: 2, W: 1}},
		"zero weight":        {{U: 0, V: 1, W: 0}},
		"negative weight":    {{U: 0, V: 1, W: 5}, {U: 1, V: 0, W: -1}},
	} {
		if _, err := FromEdges(3, es); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := FromEdges(3, []Edge{{U: 0, V: 2, W: 1}, {U: 2, V: 1, W: 1}}); err != nil {
		t.Errorf("valid edges rejected: %v", err)
	}
}

// FromEdges sums duplicates whichever way round their endpoints come,
// so the same edge multiset in any order builds the same CSR.
func TestFromEdgesOrderInvariant(t *testing.T) {
	es := []Edge{{0, 1, 2}, {2, 3, 5}, {1, 0, 3}, {3, 1, 1}}
	want := refCSR(4, map[[2]int]int64{{0, 1}: 5, {2, 3}: 5, {1, 3}: 1})
	rev := append([]Edge(nil), es...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	for _, list := range [][]Edge{es, rev} {
		csrEqual(t, mustFromEdges(t, 4, list...).Freeze(), want)
	}
}

// ApplyDeltas treats {u,v} and {v,u} as one edge, accumulates, and a
// weight that reaches zero removes the edge from both rows.
func TestApplyDeltasSymmetric(t *testing.T) {
	g := mustFromEdges(t, 4)
	if err := g.ApplyDeltas([]Delta{{U: 1, V: 3, W: 5}}); err != nil {
		t.Fatal(err)
	}
	if c := g.Freeze(); c.Weight(1, 3) != 5 || c.Weight(3, 1) != 5 {
		t.Errorf("weights: %d, %d", c.Weight(1, 3), c.Weight(3, 1))
	}
	if err := g.ApplyDeltas([]Delta{{U: 3, V: 1, W: 2}}); err != nil {
		t.Fatal(err)
	}
	if w := g.Freeze().Weight(1, 3); w != 7 {
		t.Errorf("accumulated weight = %d, want 7", w)
	}
	if err := g.ApplyDeltas([]Delta{{U: 1, V: 3, W: -7}}); err != nil {
		t.Fatal(err)
	}
	if c := g.Freeze(); c.Weight(1, 3) != 0 || c.Degree(1) != 0 || c.Degree(3) != 0 {
		t.Error("zeroed edge not removed")
	}
}

func TestFromTrace(t *testing.T) {
	tr := trace.New("t", 4)
	for _, it := range []int{0, 1, 0, 0, 2, 1} {
		tr.Read(it)
	}
	g, err := FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 {
		t.Errorf("N = %d", g.N())
	}
	c := g.Freeze()
	if c.Weight(0, 1) != 2 || c.Weight(0, 2) != 1 || c.Weight(1, 2) != 1 {
		t.Errorf("weights wrong: %d %d %d", c.Weight(0, 1), c.Weight(0, 2), c.Weight(1, 2))
	}
	// Self transition 0->0 ignored.
	if g.TotalWeight() != 4 {
		t.Errorf("TotalWeight = %d, want 4", g.TotalWeight())
	}
	bad := trace.New("bad", 1)
	bad.Read(3)
	if _, err := FromTrace(bad); err == nil {
		t.Error("invalid trace accepted")
	}
}

// The frozen CSR row lists a vertex's neighbors in ascending order
// whatever order the edges were given in.
func TestNeighborsDeterministicOrder(t *testing.T) {
	g := mustFromEdges(t, 5, Edge{2, 4, 1}, Edge{2, 0, 2}, Edge{2, 3, 3})
	cols, ws := g.Freeze().Row(2)
	if !reflect.DeepEqual(cols, []int32{0, 3, 4}) || !reflect.DeepEqual(ws, []int64{2, 3, 1}) {
		t.Errorf("row 2 = %v / %v", cols, ws)
	}
}

func TestEdgesSorted(t *testing.T) {
	g := mustFromEdges(t, 5, Edge{0, 1, 3}, Edge{2, 3, 7}, Edge{1, 4, 3})
	es := g.Freeze().Edges()
	want := []Edge{{2, 3, 7}, {0, 1, 3}, {1, 4, 3}}
	if !reflect.DeepEqual(es, want) {
		t.Errorf("Edges = %v, want %v", es, want)
	}
	if c := g.Freeze(); c.NumEdges() != 3 {
		t.Errorf("NumEdges = %d", c.NumEdges())
	}
}

// The CSR's EachEdge visits exactly the edges the graph was built from,
// each once, and so does the sorted Edges view.
func TestEachEdgeMatchesEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	want := map[[2]int]int64{}
	var es []Edge
	for i := 0; i < 40; i++ {
		u, v := rng.Intn(12), rng.Intn(12)
		if u != v {
			w := int64(rng.Intn(5) + 1)
			es = append(es, Edge{u, v, w})
			want[[2]int{min(u, v), max(u, v)}] += w
		}
	}
	c := mustFromEdges(t, 12, es...).Freeze()
	got := map[[2]int]int64{}
	c.EachEdge(func(u, v int, w int64) {
		if u >= v {
			t.Fatalf("EachEdge emitted unordered pair (%d,%d)", u, v)
		}
		if _, dup := got[[2]int{u, v}]; dup {
			t.Fatalf("EachEdge emitted (%d,%d) twice", u, v)
		}
		got[[2]int{u, v}] = w
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("EachEdge = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(c.Edges(), refEdges(want)) {
		t.Errorf("Edges = %v, want %v", c.Edges(), refEdges(want))
	}
}

func TestDegreeAndWeightedDegree(t *testing.T) {
	c := mustFromEdges(t, 4, Edge{0, 1, 3}, Edge{0, 2, 4}).Freeze()
	if c.Degree(0) != 2 || c.WeightedDegree(0) != 7 {
		t.Errorf("deg=%d wdeg=%d", c.Degree(0), c.WeightedDegree(0))
	}
	if c.Degree(3) != 0 || c.WeightedDegree(3) != 0 {
		t.Error("isolated vertex has nonzero degree")
	}
}
