package graph

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// lcgTrace builds a fixed synthetic trace without any RNG dependency, so
// the only nondeterminism the test could observe is internal to graph.
func lcgTrace(items, accesses int) *trace.Trace {
	tr := trace.New("lcg", items)
	x := uint32(12345)
	for i := 0; i < accesses; i++ {
		x = x*1664525 + 1013904223
		item := int(x>>16) % items
		if x&1 == 0 {
			tr.Read(item)
		} else {
			tr.Write(item)
		}
	}
	return tr
}

// TestGraphViewsStableAcross100Rebuilds guards the determinism contract
// dwmlint's maporder rule enforces structurally: FromTrace counts
// transitions in a map, whose iteration order Go re-randomizes per map
// instance, so every rebuild scatters the arcs into their rows in a
// different order. The ordered views (the CSR's rows and its Edges list)
// must come out identical every time — delete the row sort in buildRows
// or the sort in CSR.Edges and this fails with high probability.
func TestGraphViewsStableAcross100Rebuilds(t *testing.T) {
	tr := lcgTrace(96, 6000)
	build := func() *Graph {
		g, err := FromTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	ref := build()
	refCSR := ref.Freeze()
	refEdges := refCSR.Edges()

	for i := 0; i < 100; i++ {
		g := build()
		c := g.Freeze()
		if edges := c.Edges(); !reflect.DeepEqual(edges, refEdges) {
			t.Fatalf("rebuild %d: Edges() order differs from reference", i)
		}
		for u := 0; u < g.N(); u++ {
			cols, ws := c.Row(u)
			refCols, refWs := refCSR.Row(u)
			if !reflect.DeepEqual(cols, refCols) || !reflect.DeepEqual(ws, refWs) {
				t.Fatalf("rebuild %d: CSR row %d differs from reference", i, u)
			}
		}
	}
}
