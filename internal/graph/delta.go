package graph

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Delta instrumentation (see internal/obs): batches applied, distinct
// edges edited, and which CSR path each batch took — "patched" batches
// only changed weights of existing edges (arrays copied, rows untouched),
// "spliced" batches inserted or removed edges (touched rows merged with
// their edits, untouched rows block-copied).
var (
	obsDeltaBatches = obs.GetCounter("graph.delta.batches")
	obsDeltaEdges   = obs.GetCounter("graph.delta.edges")
	obsDeltaPatched = obs.GetCounter("graph.delta.patched")
	obsDeltaSpliced = obs.GetCounter("graph.delta.spliced")
)

// Delta is one edge-weight increment: add W (which may be negative) to
// the weight of edge {U,V}. A weight that reaches zero removes the edge;
// an increment on an absent edge creates it. Deltas are the unit of
// streaming graph evolution — a live access stream turns into one Delta
// per observed transition, batched by the session layer.
type Delta struct {
	U, V int
	W    int64
}

// edit is one edge whose weight a batch changes, old to new.
type edit struct {
	u, v     int
	old, new int64
}

// ApplyDeltas applies a batch of edge-weight increments in one step,
// deriving the graph's next CSR snapshot from the current one: a batch
// that only changes weights of existing edges copies the weight/degree
// arrays and edits the touched entries in place, and a batch that
// inserts or removes edges merges each touched row with its edits,
// block-copying the rest. Either way the previous snapshot stays
// immutable and valid for readers that still hold it; the graph simply
// advances to the successor, whose fingerprint/edges/canon memos are
// rebuilt lazily only if someone asks for them.
//
// The whole batch is validated before anything changes: an out-of-range
// vertex, a self loop, or a net weight that would go negative fails the
// call with the graph unchanged. The final graph (and its CSR bytes) is
// a pure function of the net per-edge increments — the order of deltas
// within a batch, and the batching itself, never shows through. Calls
// must not run concurrently with each other.
func (g *Graph) ApplyDeltas(ds []Delta) error {
	if len(ds) == 0 {
		return nil
	}
	// Net the batch per edge and validate against the current weights.
	old := g.Freeze()
	net := make(map[uint64]edit, len(ds))
	for i, d := range ds {
		u, v := d.U, d.V
		if u < 0 || u >= g.n || v < 0 || v >= g.n {
			return fmt.Errorf("graph: delta %d: vertex pair (%d,%d) outside [0,%d)", i, u, v, g.n)
		}
		if u == v {
			return fmt.Errorf("graph: delta %d: self loop on %d", i, u)
		}
		if u > v {
			u, v = v, u
		}
		k := pairKey(u, v)
		e, seen := net[k]
		if !seen {
			w := old.Weight(u, v)
			e = edit{u: u, v: v, old: w, new: w}
		}
		e.new += d.W
		if e.new < 0 {
			return fmt.Errorf("graph: delta %d: edge {%d,%d} weight would go negative", i, u, v)
		}
		net[k] = e
	}

	// Flatten to a sorted edit list (map order must not leak anywhere)
	// and drop no-ops so an inert batch leaves every memo untouched.
	edits := make([]edit, 0, len(net))
	structural := false
	for _, e := range net {
		if e.old != e.new {
			edits = append(edits, e)
			structural = structural || e.old == 0 || e.new == 0
		}
	}
	if len(edits) == 0 {
		return nil
	}
	sort.Slice(edits, func(i, j int) bool {
		if edits[i].u != edits[j].u {
			return edits[i].u < edits[j].u
		}
		return edits[i].v < edits[j].v
	})

	_, span := obs.StartSpan(context.Background(), "graph.delta.apply")
	defer span.End()
	obsDeltaBatches.Inc()
	obsDeltaEdges.Add(int64(len(edits)))
	span.SetAttr("edges", len(edits)).SetAttr("structural", structural)

	var next *CSR
	if !structural {
		next = patchWeights(old, edits)
		obsDeltaPatched.Inc()
		span.SetAttr("path", "patched")
	} else {
		next = spliceRows(old, edits)
		obsDeltaSpliced.Inc()
		span.SetAttr("path", "spliced")
	}
	g.csr.Store(next)
	return nil
}

// patchWeights derives a CSR from old where only edge weights changed:
// rowPtr and colIdx are structurally identical, so they are shared with
// the old snapshot, and only the weight/degree arrays are copied and
// edited.
func patchWeights(old *CSR, edits []edit) *CSR {
	next := &CSR{
		n:       old.n,
		rowPtr:  old.rowPtr,
		colIdx:  old.colIdx,
		weights: append([]int64(nil), old.weights...),
		wdeg:    append([]int64(nil), old.wdeg...),
		totalW:  old.totalW,
	}
	for _, e := range edits {
		dw := e.new - e.old
		next.weights[next.arcIndex(e.u, e.v)] += dw
		next.weights[next.arcIndex(e.v, e.u)] += dw
		next.wdeg[e.u] += dw
		next.wdeg[e.v] += dw
		next.totalW += dw
	}
	return next
}

// arcIndex locates the weights/colIdx index of the directed arc u->v by
// binary search over u's row. The arc must exist.
func (c *CSR) arcIndex(u, v int) int {
	lo, hi := c.rowPtr[u], c.rowPtr[u+1]
	row := c.colIdx[lo:hi]
	i := sort.Search(len(row), func(i int) bool { return int(row[i]) >= v })
	if i >= len(row) || int(row[i]) != v {
		panic(fmt.Sprintf("graph: arc %d->%d absent from CSR during patch", u, v))
	}
	return lo + i
}

// arcEdit sets the directed arc row->col to w (zero removes it).
type arcEdit struct {
	row, col int
	w        int64
}

// spliceRows derives a CSR from old where some edges appeared or
// vanished: each touched row is the merge of its old (ascending) row with
// its edits sorted by column, and untouched rows are block-copied. The
// result is the CSR a full build of the edited edge set would produce.
func spliceRows(old *CSR, edits []edit) *CSR {
	arcs := make([]arcEdit, 0, 2*len(edits))
	size := len(old.colIdx)
	for _, e := range edits {
		arcs = append(arcs, arcEdit{e.u, e.v, e.new}, arcEdit{e.v, e.u, e.new})
		if e.old == 0 {
			size += 2
		} else if e.new == 0 {
			size -= 2
		}
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].row != arcs[j].row {
			return arcs[i].row < arcs[j].row
		}
		return arcs[i].col < arcs[j].col
	})
	next := &CSR{
		n:       old.n,
		rowPtr:  make([]int, old.n+1),
		colIdx:  make([]int32, size),
		weights: make([]int64, size),
		wdeg:    make([]int64, old.n),
	}
	at := 0
	for u := 0; u < old.n; u++ {
		lo, hi := old.rowPtr[u], old.rowPtr[u+1]
		if len(arcs) == 0 || arcs[0].row != u {
			at += copy(next.colIdx[at:], old.colIdx[lo:hi])
			copy(next.weights[at-(hi-lo):], old.weights[lo:hi])
			next.wdeg[u] = old.wdeg[u]
		} else {
			put := func(col int, w int64) {
				next.colIdx[at], next.weights[at] = int32(col), w
				next.wdeg[u] += w
				at++
			}
			i := lo
			for ; len(arcs) > 0 && arcs[0].row == u; arcs = arcs[1:] {
				a := arcs[0]
				for ; i < hi && int(old.colIdx[i]) < a.col; i++ {
					put(int(old.colIdx[i]), old.weights[i])
				}
				if i < hi && int(old.colIdx[i]) == a.col {
					i++ // the edit replaces this arc
				}
				if a.w != 0 {
					put(a.col, a.w)
				}
			}
			for ; i < hi; i++ {
				put(int(old.colIdx[i]), old.weights[i])
			}
		}
		next.rowPtr[u+1] = at
		next.totalW += next.wdeg[u]
	}
	next.totalW /= 2
	return next
}
