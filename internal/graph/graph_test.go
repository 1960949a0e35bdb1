package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// The graph algorithms below (components, cut weight, induced
// subgraph, maximum spanning forest) have no caller outside tests; they
// live here with the tests that pin their behaviour.

// components returns the connected components as slices of vertex IDs,
// each sorted ascending, ordered by their smallest vertex. Isolated
// vertices form singleton components. The DFS visits neighbors in
// sorted order so the whole traversal — not just the returned slices —
// is independent of map layout.
func components(g *Graph) [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	var nbrs []int // per-vertex scratch, reused across pops
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			nbrs = nbrs[:0]
			for v := range g.adj[u] {
				nbrs = append(nbrs, v)
			}
			sort.Ints(nbrs)
			for _, v := range nbrs {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// cutWeight returns the total weight of edges with exactly one endpoint in
// the given set (passed as a membership mask of length N).
func cutWeight(g *Graph, inSet []bool) int64 {
	if len(inSet) != g.n {
		panic(fmt.Sprintf("graph: mask length %d != N %d", len(inSet), g.n))
	}
	var s int64
	for u := 0; u < g.n; u++ {
		if !inSet[u] {
			continue
		}
		for v, w := range g.adj[u] {
			if !inSet[v] {
				s += w
			}
		}
	}
	return s
}

// subgraph returns the induced subgraph on the given vertices together
// with the mapping from new IDs (0..len(vs)-1) to original IDs. Vertices
// must be distinct and valid.
func subgraph(g *Graph, vs []int) (*Graph, []int, error) {
	if len(vs) == 0 {
		return nil, nil, fmt.Errorf("graph: empty subgraph")
	}
	newID := make(map[int]int, len(vs))
	for i, v := range vs {
		if v < 0 || v >= g.n {
			return nil, nil, fmt.Errorf("graph: subgraph vertex %d outside [0,%d)", v, g.n)
		}
		if _, dup := newID[v]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate subgraph vertex %d", v)
		}
		newID[v] = i
	}
	sub, err := New(len(vs))
	if err != nil {
		return nil, nil, err
	}
	for _, u := range vs {
		for v, w := range g.adj[u] {
			nu, nv := newID[u], 0
			var ok bool
			if nv, ok = newID[v]; !ok {
				continue
			}
			if nu < nv {
				sub.AddWeight(nu, nv, w)
			}
		}
	}
	return sub, append([]int(nil), vs...), nil
}

// maxSpanningForest returns the edges of a maximum-weight spanning forest
// (Kruskal over descending weights).
func maxSpanningForest(g *Graph) []Edge {
	parent := make([]int, g.n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var forest []Edge
	for _, e := range edges(g) {
		ru, rv := find(e.U), find(e.V)
		if ru != rv {
			parent[ru] = rv
			forest = append(forest, e)
		}
	}
	return forest
}

// edges returns all edges of g sorted by descending weight, breaking ties by
// (U,V) ascending for determinism, read straight from the adjacency
// maps: the independent reference CSR.Edges is checked against.
func edges(g *Graph) []Edge {
	var es []Edge
	for u := 0; u < g.n; u++ {
		for v, w := range g.adj[u] {
			if u < v {
				es = append(es, Edge{U: u, V: v, W: w})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].W != es[j].W {
			return es[i].W > es[j].W
		}
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

func mustNew(t *testing.T, n int) *Graph {
	t.Helper()
	g, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) accepted", n)
		}
	}
}

func TestAddWeightSymmetric(t *testing.T) {
	g := mustNew(t, 4)
	g.AddWeight(1, 3, 5)
	if g.Weight(1, 3) != 5 || g.Weight(3, 1) != 5 {
		t.Errorf("weights: %d, %d", g.Weight(1, 3), g.Weight(3, 1))
	}
	g.AddWeight(3, 1, 2)
	if g.Weight(1, 3) != 7 {
		t.Errorf("accumulated weight = %d, want 7", g.Weight(1, 3))
	}
	g.AddWeight(1, 3, -7)
	if g.Weight(1, 3) != 0 || len(g.adj[1]) != 0 {
		t.Error("zeroed edge not removed")
	}
}

func TestPanics(t *testing.T) {
	g := mustNew(t, 3)
	cases := []func(){
		func() { g.AddWeight(0, 0, 1) },
		func() { g.AddWeight(-1, 1, 1) },
		func() { g.AddWeight(0, 3, 1) },
		func() { g.Weight(0, 0) },
		func() {
			g.AddWeight(0, 1, 1)
			g.AddWeight(0, 1, -2)
		},
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
	if g.Weight(0, 1) != 2 || g.Weight(0, 2) != 1 || g.Weight(1, 2) != 1 {
		t.Errorf("weights wrong: %d %d %d", g.Weight(0, 1), g.Weight(0, 2), g.Weight(1, 2))
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
// whatever order the edges were added in.
func TestNeighborsDeterministicOrder(t *testing.T) {
	g := mustNew(t, 5)
	g.AddWeight(2, 4, 1)
	g.AddWeight(2, 0, 2)
	g.AddWeight(2, 3, 3)
	cols, ws := g.Freeze().Row(2)
	if !reflect.DeepEqual(cols, []int32{0, 3, 4}) || !reflect.DeepEqual(ws, []int64{2, 3, 1}) {
		t.Errorf("row 2 = %v / %v", cols, ws)
	}
}

func TestEdgesSorted(t *testing.T) {
	g := mustNew(t, 5)
	g.AddWeight(0, 1, 3)
	g.AddWeight(2, 3, 7)
	g.AddWeight(1, 4, 3)
	es := g.Freeze().Edges()
	want := []Edge{{2, 3, 7}, {0, 1, 3}, {1, 4, 3}}
	if !reflect.DeepEqual(es, want) {
		t.Errorf("Edges = %v, want %v", es, want)
	}
	if c := g.Freeze(); c.NumEdges() != 3 {
		t.Errorf("NumEdges = %d", c.NumEdges())
	}
}

// The CSR's unordered EachEdge visits exactly the edges of the sorted
// Edges view, each once.
func TestEachEdgeMatchesEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := mustNew(t, 12)
	for i := 0; i < 40; i++ {
		u, v := rng.Intn(12), rng.Intn(12)
		if u != v {
			g.AddWeight(u, v, int64(rng.Intn(5)+1))
		}
	}
	got := map[[2]int]int64{}
	g.Freeze().EachEdge(func(u, v int, w int64) {
		if u >= v {
			t.Fatalf("EachEdge emitted unordered pair (%d,%d)", u, v)
		}
		if _, dup := got[[2]int{u, v}]; dup {
			t.Fatalf("EachEdge emitted (%d,%d) twice", u, v)
		}
		got[[2]int{u, v}] = w
	})
	want := map[[2]int]int64{}
	for _, e := range edges(g) {
		want[[2]int{e.U, e.V}] = e.W
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("EachEdge = %v, Edges = %v", got, want)
	}
}

func TestDegreeAndWeightedDegree(t *testing.T) {
	g := mustNew(t, 4)
	g.AddWeight(0, 1, 3)
	g.AddWeight(0, 2, 4)
	c := g.Freeze()
	if c.Degree(0) != 2 || c.WeightedDegree(0) != 7 {
		t.Errorf("deg=%d wdeg=%d", c.Degree(0), c.WeightedDegree(0))
	}
	if c.Degree(3) != 0 || c.WeightedDegree(3) != 0 {
		t.Error("isolated vertex has nonzero degree")
	}
}

func TestComponents(t *testing.T) {
	g := mustNew(t, 6)
	g.AddWeight(0, 1, 1)
	g.AddWeight(1, 2, 1)
	g.AddWeight(4, 5, 1)
	comps := components(g)
	want := [][]int{{0, 1, 2}, {3}, {4, 5}}
	if !reflect.DeepEqual(comps, want) {
		t.Errorf("Components = %v, want %v", comps, want)
	}
}

func TestCutWeight(t *testing.T) {
	g := mustNew(t, 4)
	g.AddWeight(0, 1, 3)
	g.AddWeight(1, 2, 5)
	g.AddWeight(2, 3, 7)
	mask := []bool{true, true, false, false}
	if got := cutWeight(g, mask); got != 5 {
		t.Errorf("CutWeight = %d, want 5", got)
	}
	all := []bool{true, true, true, true}
	if got := cutWeight(g, all); got != 0 {
		t.Errorf("CutWeight(all) = %d, want 0", got)
	}
}

func TestSubgraph(t *testing.T) {
	g := mustNew(t, 5)
	g.AddWeight(0, 1, 1)
	g.AddWeight(1, 2, 2)
	g.AddWeight(2, 3, 3)
	sub, ids, err := subgraph(g, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []int{1, 2, 4}) {
		t.Errorf("ids = %v", ids)
	}
	if sub.N() != 3 || sub.Weight(0, 1) != 2 || len(edges(sub)) != 1 {
		t.Errorf("subgraph wrong: N=%d w=%d edges=%d", sub.N(), sub.Weight(0, 1), len(edges(sub)))
	}
	if _, _, err := subgraph(g, nil); err == nil {
		t.Error("empty subgraph accepted")
	}
	if _, _, err := subgraph(g, []int{0, 0}); err == nil {
		t.Error("duplicate vertices accepted")
	}
	if _, _, err := subgraph(g, []int{9}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

func TestMaxSpanningForest(t *testing.T) {
	g := mustNew(t, 4)
	g.AddWeight(0, 1, 10)
	g.AddWeight(1, 2, 5)
	g.AddWeight(0, 2, 1) // cycle edge, lightest: excluded
	g.AddWeight(2, 3, 7)
	forest := maxSpanningForest(g)
	if len(forest) != 3 {
		t.Fatalf("forest size = %d, want 3", len(forest))
	}
	var total int64
	for _, e := range forest {
		total += e.W
	}
	if total != 22 {
		t.Errorf("forest weight = %d, want 22", total)
	}
}

// Property: the forest of an n-vertex graph with c components has n-c
// edges, and total graph weight equals the sum over Edges().
func TestForestAndWeightInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		g, err := New(n)
		if err != nil {
			return false
		}
		var want int64
		for i := 0; i < rng.Intn(40); i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			w := int64(rng.Intn(9) + 1)
			if g.Weight(u, v) == 0 {
				want += w
			} else {
				want += w
			}
			g.AddWeight(u, v, w)
		}
		if g.TotalWeight() != want {
			return false
		}
		forest := maxSpanningForest(g)
		return len(forest) == n-len(components(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
