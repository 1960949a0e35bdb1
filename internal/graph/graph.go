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
//
// The graph has one representation: an immutable CSR snapshot (see
// CSR). FromTrace and FromEdges build the first snapshot; ApplyDeltas
// derives each successor from its predecessor.
package graph

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/trace"
)

// MaxVertices is the largest vertex count a Graph can hold: the CSR view
// indexes neighbors with int32 IDs, so graphs must stay below 2^31
// vertices. FromEdges and FromTrace reject larger inputs with
// ErrTooManyVertices.
const MaxVertices = maxCSRVertices

// ErrTooManyVertices is returned (wrapped) by FromEdges and FromTrace
// when the requested vertex count reaches MaxVertices. Callers can
// errors.Is on it to map oversized inputs to a client error instead of a
// crash.
var ErrTooManyVertices = errors.New("graph: vertex count exceeds the CSR limit")

// Edge is an undirected weighted edge. CSR.Edges lists them with U < V;
// FromEdges accepts either order.
type Edge struct {
	U, V int
	W    int64
}

// Graph is a weighted undirected graph over vertices 0..N-1 with no self
// loops: a handle to its current CSR snapshot, which ApplyDeltas
// advances. The zero value is unusable; use FromEdges or FromTrace.
type Graph struct {
	n   int
	csr atomic.Pointer[CSR]
}

// FromEdges returns the graph on n vertices whose edges are es, summing
// the weights of duplicate edges. Endpoints may come in either order. An
// out-of-range vertex, a self loop or a non-positive weight is an error.
func FromEdges(n int, es []Edge) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: need at least one vertex, got %d", n)
	}
	if n >= maxCSRVertices {
		return nil, fmt.Errorf("graph: %d vertices: %w (limit %d)", n, ErrTooManyVertices, maxCSRVertices)
	}
	sums := make(map[uint64]int64, len(es))
	for i, e := range es {
		u, v := e.U, e.V
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge %d: vertex pair (%d,%d) outside [0,%d)", i, u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: edge %d: self loop on %d", i, u)
		}
		if e.W <= 0 {
			return nil, fmt.Errorf("graph: edge %d: weight %d on {%d,%d} is not positive", i, e.W, u, v)
		}
		sums[pairKey(u, v)] += e.W
	}
	return newGraph(n, sums), nil
}

// FromTrace builds the access-transition graph of a trace: one vertex per
// item, edge weights counting consecutive accesses to distinct items.
// Transitions are counted into one packed-key map, which then becomes
// the CSR rows directly.
func FromTrace(t *trace.Trace) (*Graph, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	// Reject oversized item spaces before allocating anything: the CSR's
	// neighbor IDs are int32, so such a graph cannot be represented.
	if t.NumItems >= maxCSRVertices {
		return nil, fmt.Errorf("graph: trace %q declares %d items: %w (limit %d)",
			t.Name, t.NumItems, ErrTooManyVertices, maxCSRVertices)
	}
	counts := make(map[uint64]int64, t.NumItems)
	for i := 1; i < t.Len(); i++ {
		u, v := t.Accesses[i-1].Item, t.Accesses[i].Item
		if u != v {
			counts[pairKey(u, v)]++
		}
	}
	return newGraph(t.NumItems, counts), nil
}

func newGraph(n int, sums map[uint64]int64) *Graph {
	g := &Graph{n: n}
	g.csr.Store(buildRows(n, sums))
	return g
}

// pairKey packs the edge {u,v} into one map key, smaller endpoint first.
func pairKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() int64 { return g.Freeze().totalW }
