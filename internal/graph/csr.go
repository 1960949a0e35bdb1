package graph

import (
	"fmt"
	"sort"
	"sync"
)

// CSR is an immutable compressed-sparse-row snapshot of a Graph. The
// adjacency of vertex u occupies colIdx/weights[rowPtr[u]:rowPtr[u+1]],
// with neighbors in ascending ID order, so the optimizer hot loops
// (SwapDelta, barycenter averaging, affinity scans) iterate flat,
// cache-friendly slices. Obtain one with Graph.Freeze; the zero value is
// unusable.
type CSR struct {
	n       int
	rowPtr  []int   //dwmlint:frozen FromEdges FromTrace ApplyDeltas
	colIdx  []int32 //dwmlint:frozen FromEdges FromTrace ApplyDeltas
	weights []int64 //dwmlint:frozen FromEdges FromTrace ApplyDeltas
	wdeg    []int64 //dwmlint:frozen FromEdges FromTrace ApplyDeltas
	totalW  int64

	edgesOnce sync.Once
	edges     []Edge // lazily built descending-weight edge list

	canonOnce sync.Once
	canon     *Canonical // lazily built canonical relabeling, see Canon
}

// maxCSRVertices bounds the vertex count a CSR can index with int32
// neighbor IDs.
const maxCSRVertices = 1 << 31

// Freeze returns the graph's current CSR snapshot. It builds nothing:
// the constructors build the first snapshot and ApplyDeltas replaces it
// with a patched successor. A snapshot is immutable and safe for
// concurrent readers, and stays valid after ApplyDeltas moves on.
func (g *Graph) Freeze() *CSR { return g.csr.Load() }

// buildRows turns netted per-edge weights (packed u<v keys, see pairKey;
// every weight positive) into the CSR on n vertices: count degrees,
// scatter both arcs of every edge, sort each row ascending, then sum wdeg
// and totalW.
func buildRows(n int, sums map[uint64]int64) *CSR {
	c := &CSR{
		n:      n,
		rowPtr: make([]int, n+1),
		wdeg:   make([]int64, n),
	}
	for k := range sums {
		c.rowPtr[k>>32+1]++
		c.rowPtr[uint32(k)+1]++
	}
	for u := 0; u < n; u++ {
		c.rowPtr[u+1] += c.rowPtr[u]
	}
	c.colIdx = make([]int32, c.rowPtr[n])
	c.weights = make([]int64, c.rowPtr[n])
	at := append([]int(nil), c.rowPtr[:n]...)
	for k, w := range sums {
		u, v := int(k>>32), int(uint32(k))
		c.colIdx[at[u]], c.weights[at[u]] = int32(v), w
		c.colIdx[at[v]], c.weights[at[v]] = int32(u), w
		at[u]++
		at[v]++
	}
	rs := &rowSorter{}
	for u := 0; u < n; u++ {
		lo, hi := c.rowPtr[u], c.rowPtr[u+1]
		rs.cols, rs.ws = c.colIdx[lo:hi], c.weights[lo:hi]
		sort.Sort(rs)
		for _, w := range rs.ws {
			c.wdeg[u] += w
		}
		c.totalW += c.wdeg[u]
	}
	c.totalW /= 2 // every edge contributes to two rows
	return c
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
func (c *CSR) N() int { return c.n }

// NumEdges returns the number of distinct edges.
func (c *CSR) NumEdges() int { return len(c.colIdx) / 2 }

func (c *CSR) checkVertex(u int) {
	if u < 0 || u >= c.n {
		panic(fmt.Sprintf("graph: vertex %d outside [0,%d)", u, c.n))
	}
}

// Row returns vertex u's neighbor IDs and the matching edge weights as
// shared read-only slices in ascending neighbor order. This is the
// allocation-free primitive the hot loops index directly.
func (c *CSR) Row(u int) ([]int32, []int64) {
	c.checkVertex(u)
	lo, hi := c.rowPtr[u], c.rowPtr[u+1]
	return c.colIdx[lo:hi], c.weights[lo:hi]
}

// Arrays returns the three CSR arrays themselves, shared and read-only:
// vertex u's row is colIdx/weights[rowPtr[u]:rowPtr[u+1]]. It is Row for
// loops that index several rows per call (cost.Evaluator.SwapDelta) and
// cannot afford a bounds-checked call per row.
func (c *CSR) Arrays() (rowPtr []int, colIdx []int32, weights []int64) {
	return c.rowPtr, c.colIdx, c.weights
}

// Degree returns the number of distinct neighbors of u.
func (c *CSR) Degree(u int) int {
	c.checkVertex(u)
	return c.rowPtr[u+1] - c.rowPtr[u]
}

// WeightedDegree returns the sum of edge weights incident to u.
func (c *CSR) WeightedDegree(u int) int64 {
	c.checkVertex(u)
	return c.wdeg[u]
}

// Weight returns the weight of edge {u,v}, zero if absent, by binary
// search over the sparser of the two rows.
func (c *CSR) Weight(u, v int) int64 {
	c.checkVertex(u)
	c.checkVertex(v)
	if c.Degree(v) < c.Degree(u) {
		u, v = v, u
	}
	cols, ws := c.Row(u)
	i := sort.Search(len(cols), func(i int) bool { return int(cols[i]) >= v })
	if i < len(cols) && int(cols[i]) == v {
		return ws[i]
	}
	return 0
}

// EachEdge calls fn for every distinct edge exactly once, in ascending
// (u, v) order.
func (c *CSR) EachEdge(fn func(u, v int, w int64)) {
	for u := 0; u < c.n; u++ {
		cols, ws := c.Row(u)
		for i, v := range cols {
			if int(v) > u {
				fn(u, int(v), ws[i])
			}
		}
	}
}

// Edges returns all edges sorted by descending weight, ties broken by
// (U,V) ascending. The slice is built once per CSR and shared between
// callers; treat it as read-only.
func (c *CSR) Edges() []Edge {
	c.edgesOnce.Do(func() {
		es := make([]Edge, 0, c.NumEdges())
		c.EachEdge(func(u, v int, w int64) {
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
		c.edges = es
	})
	return c.edges
}
