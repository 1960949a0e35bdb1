package graph

import (
	"fmt"
	"sort"
)

// buildRows turns netted per-edge weights (packed u<v keys, see pairKey;
// every weight positive) into the graph on n vertices: count degrees,
// scatter both arcs of every edge, sort each row ascending, then sum wdeg
// and totalW.
func buildRows(n int, sums map[uint64]int64) *Graph {
	g := &Graph{
		n:      n,
		rowPtr: make([]int, n+1),
		wdeg:   make([]int64, n),
	}
	for k := range sums {
		g.rowPtr[k>>32+1]++
		g.rowPtr[uint32(k)+1]++
	}
	for u := 0; u < n; u++ {
		g.rowPtr[u+1] += g.rowPtr[u]
	}
	g.colIdx = make([]int32, g.rowPtr[n])
	g.weights = make([]int64, g.rowPtr[n])
	at := append([]int(nil), g.rowPtr[:n]...)
	for k, w := range sums {
		u, v := int(k>>32), int(uint32(k))
		g.colIdx[at[u]], g.weights[at[u]] = int32(v), w
		g.colIdx[at[v]], g.weights[at[v]] = int32(u), w
		at[u]++
		at[v]++
	}
	rs := &rowSorter{}
	for u := 0; u < n; u++ {
		lo, hi := g.rowPtr[u], g.rowPtr[u+1]
		rs.cols, rs.ws = g.colIdx[lo:hi], g.weights[lo:hi]
		sort.Sort(rs)
		for _, w := range rs.ws {
			g.wdeg[u] += w
		}
		g.totalW += g.wdeg[u]
	}
	g.totalW /= 2 // every edge contributes to two rows
	return g
}

// rowSorter sorts one CSR row by neighbor ID, carrying the weights along.
type rowSorter struct {
	cols []int32
	ws   []int64
}

func (r *rowSorter) Len() int           { return len(r.cols) }
func (r *rowSorter) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r *rowSorter) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.ws[i], r.ws[j] = r.ws[j], r.ws[i]
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// NumEdges returns the number of distinct edges.
func (g *Graph) NumEdges() int { return len(g.colIdx) / 2 }

func (g *Graph) checkVertex(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: vertex %d outside [0,%d)", u, g.n))
	}
}

// Row returns vertex u's neighbor IDs and the matching edge weights as
// shared read-only slices in ascending neighbor order. This is the
// allocation-free primitive the hot loops index directly.
func (g *Graph) Row(u int) ([]int32, []int64) {
	g.checkVertex(u)
	lo, hi := g.rowPtr[u], g.rowPtr[u+1]
	return g.colIdx[lo:hi], g.weights[lo:hi]
}

// Arrays returns the three CSR arrays themselves, shared and read-only:
// vertex u's row is colIdx/weights[rowPtr[u]:rowPtr[u+1]]. It is Row for
// loops that index several rows per call (cost.Evaluator.SwapDelta) and
// cannot afford a bounds-checked call per row.
func (g *Graph) Arrays() (rowPtr []int, colIdx []int32, weights []int64) {
	return g.rowPtr, g.colIdx, g.weights
}

// Degree returns the number of distinct neighbors of u.
func (g *Graph) Degree(u int) int {
	g.checkVertex(u)
	return g.rowPtr[u+1] - g.rowPtr[u]
}

// WeightedDegree returns the sum of edge weights incident to u.
func (g *Graph) WeightedDegree(u int) int64 {
	g.checkVertex(u)
	return g.wdeg[u]
}

// Weight returns the weight of edge {u,v}, zero if absent, by binary
// search over the sparser of the two rows.
func (g *Graph) Weight(u, v int) int64 {
	g.checkVertex(u)
	g.checkVertex(v)
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	cols, ws := g.Row(u)
	i := sort.Search(len(cols), func(i int) bool { return int(cols[i]) >= v })
	if i < len(cols) && int(cols[i]) == v {
		return ws[i]
	}
	return 0
}

// EachEdge calls fn for every distinct edge exactly once, in ascending
// (u, v) order.
func (g *Graph) EachEdge(fn func(u, v int, w int64)) {
	for u := 0; u < g.n; u++ {
		cols, ws := g.Row(u)
		for i, v := range cols {
			if int(v) > u {
				fn(u, int(v), ws[i])
			}
		}
	}
}

// Edges returns all edges sorted by descending weight, ties broken by
// (U,V) ascending. The slice is built once per graph and shared between
// callers; treat it as read-only.
func (g *Graph) Edges() []Edge {
	g.edgesOnce.Do(func() {
		es := make([]Edge, 0, g.NumEdges())
		g.EachEdge(func(u, v int, w int64) {
			es = append(es, Edge{U: u, V: v, W: w})
		})
		sort.Slice(es, func(i, j int) bool {
			if es[i].W != es[j].W {
				return es[i].W > es[j].W
			}
			if es[i].U != es[j].U {
				return es[i].U < es[j].U
			}
			return es[i].V < es[j].V
		})
		g.edges = es
	})
	return g.edges
}
