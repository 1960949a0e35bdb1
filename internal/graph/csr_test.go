package graph

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := New(6)
	if err != nil {
		t.Fatal(err)
	}
	g.AddWeight(0, 1, 5)
	g.AddWeight(0, 2, 2)
	g.AddWeight(1, 2, 7)
	g.AddWeight(3, 4, 1)
	g.AddWeight(0, 4, 3)
	return g
}

func TestFreezeMatchesGraph(t *testing.T) {
	g := buildTestGraph(t)
	c := g.Freeze()
	if c.N() != g.N() {
		t.Fatalf("N: csr %d, graph %d", c.N(), g.N())
	}
	if c.NumEdges() != len(edges(g)) {
		t.Errorf("NumEdges: csr %d, graph %d", c.NumEdges(), len(edges(g)))
	}
	for u := 0; u < g.N(); u++ {
		// The graph side comes straight from the adjacency map, in
		// ascending neighbor order.
		var fromG, fromC [][2]int64
		var wdeg int64
		for v := 0; v < g.N(); v++ {
			if w, ok := g.adj[u][v]; ok {
				fromG = append(fromG, [2]int64{int64(v), w})
				wdeg += w
			}
		}
		if c.Degree(u) != len(g.adj[u]) {
			t.Errorf("Degree(%d): csr %d, graph %d", u, c.Degree(u), len(g.adj[u]))
		}
		if c.WeightedDegree(u) != wdeg {
			t.Errorf("WeightedDegree(%d): csr %d, graph %d", u, c.WeightedDegree(u), wdeg)
		}
		cols, ws := c.Row(u)
		for i := range cols {
			fromC = append(fromC, [2]int64{int64(cols[i]), ws[i]})
		}
		if !reflect.DeepEqual(fromG, fromC) {
			t.Errorf("Row(%d): csr %v, graph %v", u, fromC, fromG)
		}
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			if cw, gw := c.Weight(u, v), g.Weight(u, v); cw != gw {
				t.Errorf("Weight(%d,%d): csr %d, graph %d", u, v, cw, gw)
			}
		}
	}
	if !reflect.DeepEqual(c.Edges(), edges(g)) {
		t.Errorf("Edges: csr %v, graph %v", c.Edges(), edges(g))
	}
}

func TestFreezeCachingAndInvalidation(t *testing.T) {
	g := buildTestGraph(t)
	c1 := g.Freeze()
	if c2 := g.Freeze(); c1 != c2 {
		t.Error("Freeze did not return the cached CSR")
	}
	g.AddWeight(2, 3, 9)
	c3 := g.Freeze()
	if c3 == c1 {
		t.Error("AddWeight did not invalidate the cached CSR")
	}
	if c3.Weight(2, 3) != 9 {
		t.Errorf("rebuilt CSR missing new edge: weight %d", c3.Weight(2, 3))
	}
	if c1.Weight(2, 3) != 0 {
		t.Error("old CSR snapshot mutated")
	}
}

func TestCSREachEdgeCoversAll(t *testing.T) {
	g := buildTestGraph(t)
	c := g.Freeze()
	got := map[[2]int]int64{}
	c.EachEdge(func(u, v int, w int64) {
		if u >= v {
			t.Errorf("EachEdge emitted unordered pair (%d,%d)", u, v)
		}
		got[[2]int{u, v}] = w
	})
	want := map[[2]int]int64{}
	for _, e := range edges(g) {
		want[[2]int{e.U, e.V}] = e.W
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("EachEdge: csr %v, graph %v", got, want)
	}
}

func TestCSRRowSlicesAligned(t *testing.T) {
	g := buildTestGraph(t)
	c := g.Freeze()
	cols, ws := c.Row(0)
	if len(cols) != len(ws) || len(cols) != c.Degree(0) {
		t.Fatalf("row 0: %d cols, %d weights, degree %d", len(cols), len(ws), c.Degree(0))
	}
	for i := 1; i < len(cols); i++ {
		if cols[i-1] >= cols[i] {
			t.Errorf("row 0 not ascending: %v", cols)
		}
	}
}

func TestCSRPanicsOnBadVertex(t *testing.T) {
	c := buildTestGraph(t).Freeze()
	for _, fn := range []func(){
		func() { c.Row(-1) },
		func() { c.Degree(6) },
		func() { c.WeightedDegree(99) },
		func() { c.Weight(0, 6) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid vertex")
				}
			}()
			fn()
		}()
	}
}

func TestFromTraceMatchesIncrementalBuild(t *testing.T) {
	tr := trace.New("t", 5)
	for _, it := range []int{0, 1, 2, 1, 0, 0, 3, 4, 3, 1} {
		tr.Read(it)
	}
	got, err := FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < tr.Len(); i++ {
		u, v := tr.Accesses[i-1].Item, tr.Accesses[i].Item
		if u != v {
			want.AddWeight(u, v, 1)
		}
	}
	if !reflect.DeepEqual(edges(got), edges(want)) {
		t.Errorf("FromTrace edges %v, want %v", edges(got), edges(want))
	}
}

func syntheticTrace(n, length int) *trace.Trace {
	tr := trace.New("bench", n)
	x := 1
	for i := 0; i < length; i++ {
		x = (x*1103515245 + 12345) & 0x7fffffff
		tr.Read(x % n)
	}
	return tr
}

func BenchmarkFromTrace(b *testing.B) {
	tr := syntheticTrace(2048, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromTrace(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFreeze(b *testing.B) {
	tr := syntheticTrace(2048, 1<<16)
	g, err := FromTrace(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.frozen.Store(nil) // force a rebuild each iteration
		if c := g.Freeze(); c.N() != g.N() {
			b.Fatal("bad freeze")
		}
	}
}
