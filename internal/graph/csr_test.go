package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/trace"
)

// refCSR is the oracle the builders are checked against: the graph of the
// edge set w (keys {u,v} with u < v, weights positive) built the plain
// way — mirror every edge into per-vertex maps, then list each map's
// keys in ascending order, summing weighted degrees as it goes.
func refCSR(n int, w map[[2]int]int64) *Graph {
	adj := make([]map[int]int64, n)
	for e, x := range w {
		for _, a := range [][2]int{e, {e[1], e[0]}} {
			if adj[a[0]] == nil {
				adj[a[0]] = map[int]int64{}
			}
			adj[a[0]][a[1]] = x
		}
	}
	c := &Graph{n: n, rowPtr: make([]int, n+1), wdeg: make([]int64, n)}
	for u := 0; u < n; u++ {
		row := make([]int, 0, len(adj[u]))
		for v := range adj[u] {
			row = append(row, v)
		}
		sort.Ints(row)
		for _, v := range row {
			c.colIdx = append(c.colIdx, int32(v))
			c.weights = append(c.weights, adj[u][v])
			c.wdeg[u] += adj[u][v]
		}
		c.rowPtr[u+1] = len(c.colIdx)
		c.totalW += c.wdeg[u]
	}
	c.totalW /= 2
	return c
}

// refEdges lists the edge set w in Graph.Edges order: descending weight,
// ties by (U,V) ascending.
func refEdges(w map[[2]int]int64) []Edge {
	es := []Edge{}
	for e, x := range w {
		es = append(es, Edge{U: e[0], V: e[1], W: x})
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

// csrEqual compares two graphs structurally, byte for byte across every
// CSR array the hot paths read.
func csrEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("n: got %d, want %d", got.n, want.n)
	}
	if got.totalW != want.totalW {
		t.Fatalf("totalW: got %d, want %d", got.totalW, want.totalW)
	}
	if len(got.colIdx) != len(want.colIdx) || len(got.weights) != len(want.weights) {
		t.Fatalf("arcs: got %d/%d, want %d/%d",
			len(got.colIdx), len(got.weights), len(want.colIdx), len(want.weights))
	}
	for u := 0; u <= got.n; u++ {
		if got.rowPtr[u] != want.rowPtr[u] {
			t.Fatalf("rowPtr[%d]: got %d, want %d", u, got.rowPtr[u], want.rowPtr[u])
		}
	}
	for i := range got.colIdx {
		if got.colIdx[i] != want.colIdx[i] || got.weights[i] != want.weights[i] {
			t.Fatalf("arc %d: got (%d,%d), want (%d,%d)",
				i, got.colIdx[i], got.weights[i], want.colIdx[i], want.weights[i])
		}
	}
	for u := 0; u < got.n; u++ {
		if got.wdeg[u] != want.wdeg[u] {
			t.Fatalf("wdeg[%d]: got %d, want %d", u, got.wdeg[u], want.wdeg[u])
		}
	}
}

// TestBuildersMatchOracle is the differential property test of every
// way a graph is made: FromTrace, FromEdges and ApplyDeltas (both its
// weight-only patch and its structural splice) must each produce the
// oracle's arrays byte for byte, and the same Edges and TotalWeight.
func TestBuildersMatchOracle(t *testing.T) {
	check := func(t *testing.T, g *Graph, n int, want map[[2]int]int64) {
		t.Helper()
		csrEqual(t, g, refCSR(n, want))
		if !reflect.DeepEqual(g.Edges(), refEdges(want)) {
			t.Fatalf("Edges = %v, want %v", g.Edges(), refEdges(want))
		}
		var total int64
		for _, x := range want {
			total += x
		}
		if g.TotalWeight() != total {
			t.Fatalf("TotalWeight = %d, want %d", g.TotalWeight(), total)
		}
	}
	t.Run("FromTrace", func(t *testing.T) {
		for seed := int64(0); seed < 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			// Accesses cover only part of the items, so some stay
			// isolated, and a small hot set makes repeats and self
			// transitions common.
			n := 1 + rng.Intn(40)
			hot := 1 + rng.Intn(n)
			tr := trace.New("oracle", n)
			want := map[[2]int]int64{}
			for i, length := 0, rng.Intn(6*n); i < length; i++ {
				tr.Read(rng.Intn(hot))
				if i > 0 {
					u, v := tr.Accesses[i-1].Item, tr.Accesses[i].Item
					if u != v {
						want[[2]int{min(u, v), max(u, v)}]++
					}
				}
			}
			g, err := FromTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			check(t, g, n, want)
		}
	})
	t.Run("FromEdges", func(t *testing.T) {
		for seed := int64(0); seed < 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 2 + rng.Intn(40)
			want := map[[2]int]int64{}
			var es []Edge
			for i, m := 0, rng.Intn(5*n); i < m; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				w := int64(1 + rng.Intn(9))
				es = append(es, Edge{U: u, V: v, W: w})
				want[[2]int{min(u, v), max(u, v)}] += w
				if rng.Intn(4) == 0 { // an exact duplicate
					es = append(es, Edge{U: v, V: u, W: w})
					want[[2]int{min(u, v), max(u, v)}] += w
				}
			}
			g, err := FromEdges(n, es)
			if err != nil {
				t.Fatal(err)
			}
			check(t, g, n, want)
		}
	})
	t.Run("ApplyDeltas", func(t *testing.T) {
		patched, spliced := obsDeltaPatched.Value(), obsDeltaSpliced.Value()
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 2 + rng.Intn(30)
			g := mustFromEdges(t, n)
			want := map[[2]int]int64{}
			for round := 0; round < 20; round++ {
				var batch []Delta
				pend := map[[2]int]int64{}
				for k := 1 + rng.Intn(6); len(batch) < k; {
					u, v := rng.Intn(n), rng.Intn(n)
					if u == v {
						continue
					}
					key := [2]int{min(u, v), max(u, v)}
					cur, seen := pend[key]
					if !seen {
						cur = want[key]
					}
					var w int64
					switch {
					case cur > 0 && rng.Intn(3) == 0: // remove
						w = -cur
					case cur > 1 && rng.Intn(2) == 0: // lower, keep
						w = -rng.Int63n(cur-1) - 1
					default: // create or raise
						w = int64(1 + rng.Intn(5))
					}
					pend[key] = cur + w
					batch = append(batch, Delta{U: u, V: v, W: w})
				}
				for key, w := range pend {
					if w == 0 {
						delete(want, key)
					} else {
						want[key] = w
					}
				}
				next, err := g.ApplyDeltas(batch)
				if err != nil {
					t.Fatalf("seed %d round %d: %v", seed, round, err)
				}
				check(t, next, n, want)
				g = next
			}
		}
		if obsDeltaPatched.Value() == patched || obsDeltaSpliced.Value() == spliced {
			t.Fatal("the batches did not take both the patch and the splice path")
		}
	})
}

// TestFreezeMatchesGraph checks the CSR accessors against the edge set
// the graph was built from.
func TestFreezeMatchesGraph(t *testing.T) {
	w := map[[2]int]int64{{0, 1}: 5, {0, 2}: 2, {1, 2}: 7, {3, 4}: 1, {0, 4}: 3}
	c := buildTestGraph(t)
	if c.N() != 6 || c.NumEdges() != len(w) {
		t.Fatalf("N = %d, NumEdges = %d", c.N(), c.NumEdges())
	}
	for u := 0; u < 6; u++ {
		var row [][2]int64
		var wdeg int64
		for v := 0; v < 6; v++ {
			x := w[[2]int{min(u, v), max(u, v)}]
			if u != v && x > 0 {
				row = append(row, [2]int64{int64(v), x})
				wdeg += x
			}
			if u != v && c.Weight(u, v) != x {
				t.Errorf("Weight(%d,%d) = %d, want %d", u, v, c.Weight(u, v), x)
			}
		}
		var got [][2]int64
		cols, ws := c.Row(u)
		for i := range cols {
			got = append(got, [2]int64{int64(cols[i]), ws[i]})
		}
		if !reflect.DeepEqual(got, row) {
			t.Errorf("Row(%d) = %v, want %v", u, got, row)
		}
		if c.Degree(u) != len(row) || c.WeightedDegree(u) != wdeg {
			t.Errorf("vertex %d: Degree %d WeightedDegree %d, want %d %d",
				u, c.Degree(u), c.WeightedDegree(u), len(row), wdeg)
		}
	}
	if !reflect.DeepEqual(c.Edges(), refEdges(w)) {
		t.Errorf("Edges = %v, want %v", c.Edges(), refEdges(w))
	}
}

func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	return mustFromEdges(t, 6, Edge{0, 1, 5}, Edge{0, 2, 2}, Edge{1, 2, 7}, Edge{3, 4, 1}, Edge{0, 4, 3})
}

// Freeze is the identity, and ApplyDeltas returns a successor that
// carries the edit while the receiver keeps its old edge set.
func TestFreezeCachingAndInvalidation(t *testing.T) {
	g := buildTestGraph(t)
	if g.Freeze() != g {
		t.Error("Freeze did not return the graph itself")
	}
	next, err := g.ApplyDeltas([]Delta{{U: 2, V: 3, W: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if next == g {
		t.Error("ApplyDeltas did not return a successor")
	}
	if next.Weight(2, 3) != 9 {
		t.Errorf("successor missing new edge: weight %d", next.Weight(2, 3))
	}
	if g.Weight(2, 3) != 0 {
		t.Error("ApplyDeltas changed its receiver")
	}
}

func TestCSREachEdgeCoversAll(t *testing.T) {
	c := buildTestGraph(t)
	got := map[[2]int]int64{}
	c.EachEdge(func(u, v int, w int64) {
		if u >= v {
			t.Errorf("EachEdge emitted unordered pair (%d,%d)", u, v)
		}
		got[[2]int{u, v}] = w
	})
	want := map[[2]int]int64{{0, 1}: 5, {0, 2}: 2, {1, 2}: 7, {3, 4}: 1, {0, 4}: 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("EachEdge = %v, want %v", got, want)
	}
}

func TestCSRRowSlicesAligned(t *testing.T) {
	c := buildTestGraph(t)
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
	c := buildTestGraph(t)
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

// FromTrace and a stream of one-transition ApplyDeltas batches, as a
// streaming session would send them, end in the same CSR arrays.
func TestFromTraceMatchesIncrementalBuild(t *testing.T) {
	tr := trace.New("t", 5)
	for _, it := range []int{0, 1, 2, 1, 0, 0, 3, 4, 3, 1} {
		tr.Read(it)
	}
	got, err := FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := mustFromEdges(t, 5)
	for i := 1; i < tr.Len(); i++ {
		u, v := tr.Accesses[i-1].Item, tr.Accesses[i].Item
		if u != v {
			if want, err = want.ApplyDeltas([]Delta{{U: u, V: v, W: 1}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	csrEqual(t, got, want)
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

// BenchmarkFreeze times the CSR build alone, from the netted transition
// counts of the FromTrace benchmark's trace to sorted rows. Freeze
// itself does nothing; this is the part of FromTrace after the count.
func BenchmarkFreeze(b *testing.B) {
	tr := syntheticTrace(2048, 1<<16)
	counts := map[uint64]int64{}
	for i := 1; i < tr.Len(); i++ {
		if u, v := tr.Accesses[i-1].Item, tr.Accesses[i].Item; u != v {
			counts[pairKey(u, v)]++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := buildRows(tr.NumItems, counts); c.N() != tr.NumItems {
			b.Fatal("bad build")
		}
	}
}
