package graph

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Freeze instrumentation (see internal/obs): hits return the cached CSR,
// misses pay for a rebuild (first freeze or freeze after a mutation).
var (
	obsFreezeHits   = obs.GetCounter("graph.freeze.hits")
	obsFreezeMisses = obs.GetCounter("graph.freeze.misses")
)

// CSR is an immutable compressed-sparse-row snapshot of a Graph. The
// adjacency of vertex u occupies colIdx/weights[rowPtr[u]:rowPtr[u+1]],
// with neighbors in ascending ID order, so the optimizer hot loops
// (SwapDelta, barycenter averaging, affinity scans) iterate flat,
// cache-friendly slices instead of Go maps. Obtain one with
// Graph.Freeze; the zero value is unusable.
type CSR struct {
	n       int
	rowPtr  []int   //dwmlint:frozen Freeze ApplyDeltas
	colIdx  []int32 //dwmlint:frozen Freeze ApplyDeltas
	weights []int64 //dwmlint:frozen Freeze ApplyDeltas
	wdeg    []int64 //dwmlint:frozen Freeze ApplyDeltas
	totalW  int64

	edgesOnce sync.Once
	edges     []Edge // lazily built descending-weight edge list

	canonOnce sync.Once
	canon     *Canonical // lazily built canonical relabeling, see Canon
}

// maxCSRVertices bounds the vertex count a CSR can index with int32
// neighbor IDs.
const maxCSRVertices = 1 << 31

// Freeze returns the CSR view of the graph, building it on first use and
// caching it until the next mutation (AddWeight invalidates the cache).
// The returned CSR is immutable and safe for concurrent readers; freezing
// concurrently with mutation is not.
func (g *Graph) Freeze() *CSR {
	if c := g.frozen.Load(); c != nil {
		obsFreezeHits.Inc()
		return c
	}
	obsFreezeMisses.Inc()
	_, span := obs.StartSpan(context.Background(), "graph.freeze.build")
	c := buildCSR(g)
	span.SetAttr("n", c.n).SetAttr("edges", c.NumEdges())
	span.End()
	g.frozen.Store(c)
	return c
}

func buildCSR(g *Graph) *CSR {
	if g.n >= maxCSRVertices {
		panic(fmt.Sprintf("graph: %d vertices exceed the CSR limit %d", g.n, maxCSRVertices))
	}
	c := &CSR{
		n:      g.n,
		rowPtr: make([]int, g.n+1),
		wdeg:   make([]int64, g.n),
	}
	arcs := 0
	for u := 0; u < g.n; u++ {
		arcs += len(g.adj[u])
	}
	c.colIdx = make([]int32, 0, arcs)
	c.weights = make([]int64, 0, arcs)
	var row []int
	for u := 0; u < g.n; u++ {
		row = row[:0]
		for v := range g.adj[u] {
			row = append(row, v)
		}
		sort.Ints(row)
		var wd int64
		for _, v := range row {
			w := g.adj[u][v]
			c.colIdx = append(c.colIdx, int32(v))
			c.weights = append(c.weights, w)
			wd += w
		}
		c.wdeg[u] = wd
		c.rowPtr[u+1] = len(c.colIdx)
		c.totalW += wd
	}
	c.totalW /= 2 // every edge contributes to two rows
	return c
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
// (U,V) ascending — the same deterministic order as Graph.Edges. The
// slice is built once per CSR and shared between callers; treat it as
// read-only.
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
