// Package graph implements the weighted undirected access-transition
// graph that underlies the data-placement problem.
//
// For a trace a_1..a_T, the graph has one vertex per item and an edge
// {u,v} weighted by the number of times u and v appear consecutively in
// the trace. On a single-port tape whose head rests where the last access
// left it, the total shift count of a placement equals the graph cost
// Σ w(u,v)·|pos(u)-pos(v)| (plus the initial seek), which is the Minimum
// Linear Arrangement objective. The placement algorithms in internal/core
// operate on this graph.
package graph

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/trace"
)

// MaxVertices is the largest vertex count a Graph can hold: the CSR view
// indexes neighbors with int32 IDs, so graphs must stay below 2^31
// vertices. New and FromTrace reject larger inputs with
// ErrTooManyVertices instead of building a graph whose Freeze would
// panic.
const MaxVertices = maxCSRVertices

// ErrTooManyVertices is returned (wrapped) by New and FromTrace when the
// requested vertex count reaches MaxVertices. Callers can errors.Is on
// it to map oversized inputs to a client error instead of a crash.
var ErrTooManyVertices = errors.New("graph: vertex count exceeds the CSR limit")

// Edge is an undirected weighted edge with U < V.
type Edge struct {
	U, V int
	W    int64
}

// Graph is a weighted undirected graph over vertices 0..N-1 with no self
// loops. The zero value is unusable; use New or FromTrace.
type Graph struct {
	n   int
	adj []map[int]int64 // adj[u][v] = w, mirrored

	// frozen caches the CSR view between mutations; AddWeight
	// invalidates it. See Freeze.
	frozen atomic.Pointer[CSR]
}

// New returns an empty graph on n vertices.
func New(n int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: need at least one vertex, got %d", n)
	}
	if n >= maxCSRVertices {
		return nil, fmt.Errorf("graph: %d vertices: %w (limit %d)", n, ErrTooManyVertices, maxCSRVertices)
	}
	g := &Graph{n: n, adj: make([]map[int]int64, n)}
	return g, nil
}

// FromTrace builds the access-transition graph of a trace: one vertex per
// item, edge weights counting consecutive accesses to distinct items.
//
// Transitions are pre-counted into a single packed-key map and the
// per-vertex adjacency maps are allocated at their exact final size, so
// large traces avoid the rehash-and-regrow churn of incremental
// AddWeight calls.
func FromTrace(t *trace.Trace) (*Graph, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	// Reject oversized item spaces before allocating anything: a graph
	// this wide could be assembled edge by edge, but its Freeze — which
	// every placement path relies on — would panic on the int32 neighbor
	// IDs of the CSR. Failing here turns a would-be panic deep in a
	// worker into an ordinary validation error at the boundary.
	if t.NumItems >= maxCSRVertices {
		return nil, fmt.Errorf("graph: trace %q declares %d items: %w (limit %d)",
			t.Name, t.NumItems, ErrTooManyVertices, maxCSRVertices)
	}
	g, err := New(t.NumItems)
	if err != nil {
		return nil, err
	}
	counts := make(map[uint64]int64, t.NumItems)
	for i := 1; i < t.Len(); i++ {
		u, v := t.Accesses[i-1].Item, t.Accesses[i].Item
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		counts[uint64(u)<<32|uint64(v)]++
	}
	deg := make([]int, t.NumItems)
	for k := range counts {
		deg[int(k>>32)]++
		deg[int(uint32(k))]++
	}
	for u, d := range deg {
		if d > 0 {
			g.adj[u] = make(map[int]int64, d)
		}
	}
	for k, w := range counts {
		u, v := int(k>>32), int(uint32(k))
		g.adj[u][v] = w
		g.adj[v][u] = w
	}
	return g, nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// check panics on an invalid vertex pair; graph methods are hot paths in
// optimizers so they use panics for programmer errors rather than
// returning errors on every call.
func (g *Graph) check(u, v int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex pair (%d,%d) outside [0,%d)", u, v, g.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self loop on %d", u))
	}
}

// AddWeight adds w (which may be negative, as long as the resulting weight
// stays non-negative) to edge {u,v}, creating it if absent. A weight that
// reaches zero removes the edge.
func (g *Graph) AddWeight(u, v int, w int64) {
	g.check(u, v)
	g.frozen.Store(nil) // mutation invalidates the cached CSR view
	nw := g.Weight(u, v) + w
	if nw < 0 {
		panic(fmt.Sprintf("graph: edge {%d,%d} weight would go negative", u, v))
	}
	set := func(a, b int) {
		if nw == 0 {
			delete(g.adj[a], b)
			return
		}
		if g.adj[a] == nil {
			g.adj[a] = make(map[int]int64)
		}
		g.adj[a][b] = nw
	}
	set(u, v)
	set(v, u)
}

// Weight returns the weight of edge {u,v}, zero if absent.
func (g *Graph) Weight(u, v int) int64 {
	g.check(u, v)
	return g.adj[u][v]
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() int64 {
	var s int64
	for u := 0; u < g.n; u++ {
		for v, w := range g.adj[u] {
			if u < v {
				s += w
			}
		}
	}
	return s
}
