package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// TestApplyDeltasMatchesRebuild is the structural property test:
// randomized delta sequences — increments, decrements, edge creation,
// and deletion via weights reaching zero — applied through the patch
// path must leave a CSR identical to a cold rebuild, round after round,
// including the canonical fingerprint memo of the patched view.
func TestApplyDeltasMatchesRebuild(t *testing.T) {
	for _, n := range []int{2, 8, 33, 120} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + n)))
			// Seed with a random starting graph so round 0 has edges to
			// delete; cur mirrors its weights for the oracle.
			cur := make(map[[2]int]int64)
			var es []Edge
			for i := 0; i < 4*n; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v {
					w := int64(rng.Intn(8) + 1)
					es = append(es, Edge{U: u, V: v, W: w})
					cur[[2]int{min(u, v), max(u, v)}] += w
				}
			}
			g := mustFromEdges(t, n, es...)
			for round := 0; round < 25; round++ {
				batch := make([]Delta, 0, 8)
				// pend tracks the net in-batch weight per edge so a batch
				// never drives a weight negative (which ApplyDeltas rejects
				// by contract — covered separately in the validation test).
				pend := make(map[[2]int]int64)
				for len(batch) < 1+rng.Intn(8) {
					u, v := rng.Intn(n), rng.Intn(n)
					if u == v {
						continue
					}
					if u > v {
						u, v = v, u
					}
					key := [2]int{u, v}
					w0, seen := pend[key]
					if !seen {
						w0 = cur[key]
					}
					var w int64
					switch rng.Intn(4) {
					case 0: // exact deletion when the edge exists
						w = -w0
						if w == 0 {
							w = 1
						}
					case 1: // partial decrement, clamped non-negative
						if w0 > 1 {
							w = -rng.Int63n(w0)
						} else {
							w = 1
						}
					default:
						w = int64(rng.Intn(5) + 1)
					}
					pend[key] = w0 + w
					batch = append(batch, Delta{U: u, V: v, W: w})
				}
				if err := g.ApplyDeltas(batch); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for key, w := range pend {
					if w == 0 {
						delete(cur, key)
					} else {
						cur[key] = w
					}
				}
				got := g.Freeze()
				want := refCSR(n, cur)
				csrEqual(t, got, want)
				if got.Canon().FP != want.Canon().FP {
					t.Fatalf("round %d: patched fingerprint %s != rebuilt %s",
						round, got.Canon().FP, want.Canon().FP)
				}
			}
		})
	}
}

// TestApplyDeltasValidation pins the all-or-nothing contract: a batch
// with any invalid delta leaves both the graph and its frozen view
// untouched.
func TestApplyDeltasValidation(t *testing.T) {
	g := mustFromEdges(t, 4, Edge{0, 1, 3})
	before := g.Freeze()
	cases := [][]Delta{
		{{U: 0, V: 0, W: 1}},                       // self loop
		{{U: -1, V: 2, W: 1}},                      // vertex out of range
		{{U: 0, V: 4, W: 1}},                       // vertex out of range
		{{U: 0, V: 1, W: -4}},                      // weight would go negative
		{{U: 0, V: 1, W: 2}, {U: 2, V: 2, W: 1}},   // valid then invalid
		{{U: 0, V: 1, W: -2}, {U: 0, V: 1, W: -2}}, // net negative across the batch
	}
	for i, ds := range cases {
		if err := g.ApplyDeltas(ds); err == nil {
			t.Fatalf("case %d: want error, got nil", i)
		}
		if g.Freeze().Weight(0, 1) != 3 {
			t.Fatalf("case %d: failed batch mutated the graph", i)
		}
		if g.Freeze() != before {
			t.Fatalf("case %d: failed batch replaced the frozen view", i)
		}
	}
	// A batch that nets to zero is a no-op and must keep the same CSR
	// pointer (memos untouched).
	if err := g.ApplyDeltas([]Delta{{U: 0, V: 1, W: 2}, {U: 0, V: 1, W: -2}}); err != nil {
		t.Fatal(err)
	}
	if g.Freeze() != before {
		t.Fatal("net-zero batch replaced the frozen view")
	}
}

// TestApplyDeltasSnapshotImmutable pins that a reader holding the old
// CSR snapshot never observes a patch: both the weight-only and the
// structural path must leave the prior snapshot byte-identical.
func TestApplyDeltasSnapshotImmutable(t *testing.T) {
	g := mustFromEdges(t, 6, Edge{0, 1, 2}, Edge{1, 2, 5})
	old := g.Freeze()
	oldEdges := append([]Edge(nil), old.Edges()...)

	// Weight-only patch.
	if err := g.ApplyDeltas([]Delta{{U: 0, V: 1, W: 7}}); err != nil {
		t.Fatal(err)
	}
	// Structural patch (new edge + deletion).
	if err := g.ApplyDeltas([]Delta{{U: 3, V: 4, W: 1}, {U: 1, V: 2, W: -5}}); err != nil {
		t.Fatal(err)
	}
	if got := old.Weight(0, 1); got != 2 {
		t.Fatalf("old snapshot weight(0,1) = %d, want 2", got)
	}
	if got := old.Weight(1, 2); got != 5 {
		t.Fatalf("old snapshot weight(1,2) = %d, want 5", got)
	}
	for i, e := range old.Edges() {
		if e != oldEdges[i] {
			t.Fatalf("old snapshot edge list changed at %d: %+v != %+v", i, e, oldEdges[i])
		}
	}
	// And the live view reflects both patches.
	cur := g.Freeze()
	if got := cur.Weight(0, 1); got != 9 {
		t.Fatalf("patched weight(0,1) = %d, want 9", got)
	}
	if got := cur.Weight(1, 2); got != 0 {
		t.Fatalf("patched weight(1,2) = %d, want 0", got)
	}
	if got := cur.Weight(3, 4); got != 1 {
		t.Fatalf("patched weight(3,4) = %d, want 1", got)
	}
}

// TestFromTraceOversized pins the boundary bugfix: a trace whose item
// space reaches the CSR's int32 vertex limit must fail FromTrace with
// ErrTooManyVertices instead of a graph its int32 neighbor IDs cannot
// index.
func TestFromTraceOversized(t *testing.T) {
	tr := trace.New("huge", MaxVertices)
	tr.Read(0)
	tr.Read(1)
	if _, err := FromTrace(tr); !errors.Is(err, ErrTooManyVertices) {
		t.Fatalf("FromTrace at the limit: err = %v, want ErrTooManyVertices", err)
	}
	tr.NumItems = MaxVertices + 1
	if _, err := FromTrace(tr); !errors.Is(err, ErrTooManyVertices) {
		t.Fatalf("FromTrace above the limit: err = %v, want ErrTooManyVertices", err)
	}
	if _, err := FromEdges(MaxVertices, nil); !errors.Is(err, ErrTooManyVertices) {
		t.Fatalf("FromEdges at the limit: err = %v, want ErrTooManyVertices", err)
	}
	// Just below the limit is legal in principle; we cannot allocate a
	// 2^31-vertex graph in a unit test, so pin only that a small graph
	// still works and the limit itself is the documented constant.
	if MaxVertices != 1<<31 {
		t.Fatalf("MaxVertices = %d, want %d", MaxVertices, 1<<31)
	}
	small := trace.New("ok", 8)
	small.Read(0)
	small.Read(3)
	if _, err := FromTrace(small); err != nil {
		t.Fatalf("FromTrace on a small trace: %v", err)
	}
}

// deltaBenchEdges draws an E10-scale transition graph (a few thousand
// items, tens of thousands of edges) for the patch-vs-rebuild benchmark.
func deltaBenchEdges(n, edges int) []Edge {
	rng := rand.New(rand.NewSource(42))
	es := make([]Edge, 0, edges)
	for i := 0; i < edges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			es = append(es, Edge{U: u, V: v, W: int64(rng.Intn(16) + 1)})
		}
	}
	return es
}

func deltaBenchGraph(b *testing.B, n, edges int) *Graph {
	b.Helper()
	return mustFromEdges(b, n, deltaBenchEdges(n, edges)...)
}

// benchDeltas yields a small batch touching existing edges (the
// streaming steady state: transitions between already-seen item pairs).
func benchDeltas(g *Graph, k int) []Delta {
	c := g.Freeze()
	ds := make([]Delta, 0, k)
	c.EachEdge(func(u, v int, w int64) {
		if len(ds) < k {
			ds = append(ds, Delta{U: u, V: v, W: 1})
		}
	})
	return ds
}

// BenchmarkApplyDeltas measures the incremental path: a 16-edge batch
// patched into a warm CSR.
func BenchmarkApplyDeltas(b *testing.B) {
	g := deltaBenchGraph(b, 4096, 1<<16)
	ds := benchDeltas(g, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.ApplyDeltas(ds); err != nil {
			b.Fatal(err)
		}
		if g.Freeze() == nil {
			b.Fatal("no CSR")
		}
	}
}

// BenchmarkApplyDeltasRebuild is the from-scratch path for the same
// update: FromEdges over the graph's edges plus the 16 increments, the
// build a stream would pay per batch without ApplyDeltas.
func BenchmarkApplyDeltasRebuild(b *testing.B) {
	g := deltaBenchGraph(b, 4096, 1<<16)
	ds := benchDeltas(g, 16)
	es := append([]Edge(nil), g.Freeze().Edges()...)
	for _, d := range ds {
		es = append(es, Edge{U: d.U, V: d.V, W: d.W})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromEdges(g.N(), es); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyDeltasStructural measures the splice path: each batch
// inserts a fresh edge (and removes it again next round), forcing the
// touched-row rebuild while everything else block-copies.
func BenchmarkApplyDeltasStructural(b *testing.B) {
	g := deltaBenchGraph(b, 4096, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	on := false
	for i := 0; i < b.N; i++ {
		w := int64(1)
		if on {
			w = -1
		}
		on = !on
		if err := g.ApplyDeltas([]Delta{{U: 0, V: 1, W: w}, {U: 2, V: 3, W: w}}); err != nil {
			b.Fatal(err)
		}
		if g.Freeze() == nil {
			b.Fatal("no CSR")
		}
	}
}
