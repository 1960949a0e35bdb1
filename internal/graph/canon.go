package graph

import (
	"context"
	"sort"
	"strconv"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Canonicalization instrumentation (see internal/obs): how many graphs
// were canonicalized (cache misses on the per-graph memo) and how
// many refinement rounds the last mile of each build needed.
var (
	obsCanonBuilds = obs.GetCounter("graph.canon.builds")
	obsCanonRounds = obs.GetCounter("graph.canon.rounds")
)

// Fingerprint is a 128-bit content address of a graph's structure,
// invariant under vertex renumbering: two graphs that differ only by a
// relabeling of their vertices hash to the same fingerprint, and graphs
// with different edge structure or weights hash to different ones
// (up to 128-bit hash collision). It is the cache key primitive of
// internal/placecache.
type Fingerprint [2]uint64

// String renders the fingerprint as 32 lowercase hex digits.
func (f Fingerprint) String() string {
	var b [32]byte
	hex := func(dst []byte, v uint64) {
		s := strconv.FormatUint(v, 16)
		pad := 16 - len(s)
		for i := 0; i < pad; i++ {
			dst[i] = '0'
		}
		copy(dst[pad:], s)
	}
	hex(b[:16], f[0])
	hex(b[16:], f[1])
	return string(b[:])
}

// Canonical is the canonical relabeling of a graph, produced by Canon.
type Canonical struct {
	// Labeling maps original vertex ID to its canonical index: vertex u
	// of the source graph is vertex Labeling[u] of the canonical form.
	// It is a permutation of [0, N).
	Labeling []int32
	// FP is the fingerprint of the canonically relabeled adjacency.
	// Equal fingerprints mean the two graphs' canonical forms are
	// byte-identical, so a placement computed on one maps onto the other
	// through the labelings with its cost preserved.
	FP Fingerprint
	// Profile is the weaker degree-profile signature: a hash of the
	// sorted (degree, weighted degree) multiset, the vertex count, and
	// the total weight. It is invariant under renumbering by
	// construction and groups "similar-shape" graphs for warm-start
	// lookups even when their exact adjacency differs.
	Profile uint64
}

// Canon returns the canonical relabeling of g, building it on
// first use and memoizing it for g's lifetime (the graph is
// immutable, so the canonical form is too).
//
// The construction is Weisfeiler–Lehman style iterative refinement:
// vertices start colored by a hash of (degree, weighted degree), and
// each round recolors every vertex with a hash of its own color and the
// sorted multiset of (neighbor color, edge weight) hashes. When the
// partition stops refining before every vertex has a distinct color
// (symmetric graphs: rings, stars, mirrored paths), one vertex of the
// first ambiguous class — chosen by (class size, class color), which is
// renumbering-invariant — is individualized and refinement resumes, the
// standard individualization-refinement step. Vertices that remain tied
// after refinement are broken by original ID; for automorphic vertices
// (the common case for surviving ties) any tie-break yields the same
// canonical adjacency, so the fingerprint stays renumbering-invariant.
// WL-equivalent but non-automorphic ties — which require backtracking
// search to canonicalize exactly — can in principle produce different
// fingerprints for renumbered twins; that costs a cache miss, never a
// wrong hit, because hits compare full canonical adjacency hashes.
func (g *Graph) Canon() *Canonical {
	g.canonOnce.Do(func() {
		_, span := obs.StartSpan(context.Background(), "graph.canon.build")
		g.canon = canonicalize(g)
		obsCanonBuilds.Inc()
		span.SetAttr("n", g.n).SetAttr("fp", g.canon.FP.String())
		span.End()
	})
	return g.canon
}

// h64 hashes one value, offset by the golden-ratio constant so zero
// inputs do not map to zero.
func h64(z uint64) uint64 { return stats.Mix64(z + 0x9E3779B97F4A7C15) }

// distinctColors counts the distinct values in colors using scratch
// (resized as needed) for the sort.
func distinctColors(colors []uint64, scratch []uint64) (int, []uint64) {
	scratch = append(scratch[:0], colors...)
	sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
	n := 0
	for i, v := range scratch {
		if i == 0 || v != scratch[i-1] {
			n++
		}
	}
	return n, scratch
}

// canonicalize runs the refinement described on Canon.
func canonicalize(g *Graph) *Canonical {
	n := g.n
	colors := make([]uint64, n)
	for u := 0; u < n; u++ {
		deg := uint64(g.rowPtr[u+1] - g.rowPtr[u])
		colors[u] = stats.Mix64(h64(deg) ^ h64(uint64(g.wdeg[u])<<1|1))
	}
	next := make([]uint64, n)
	var scratch, sig []uint64
	classes, scratch := distinctColors(colors, scratch)
	rounds := 0

	refine := func() {
		// One WL round: recolor by own color + sorted neighbor signature.
		for {
			for u := 0; u < n; u++ {
				cols, ws := g.Row(u)
				sig = sig[:0]
				for i, v := range cols {
					sig = append(sig, stats.Mix64(colors[v]^h64(uint64(ws[i]))))
				}
				sort.Slice(sig, func(i, j int) bool { return sig[i] < sig[j] })
				h := h64(colors[u])
				for _, s := range sig {
					h = stats.FoldSeq(h, s)
				}
				next[u] = h
			}
			colors, next = next, colors
			rounds++
			// Refinement only ever splits classes (own color feeds the
			// new color), so an unchanged count means a stable partition.
			nc, sc := distinctColors(colors, scratch)
			scratch = sc
			if nc == classes {
				return
			}
			classes = nc
		}
	}

	refine()
	for classes < n {
		// Stable but not discrete: individualize one vertex of the
		// target class — (smallest size, then smallest color value),
		// both renumbering-invariant — and refine again. Within the
		// class the member with the smallest original ID is picked;
		// see Canon for why that preserves invariance in practice.
		// scratch holds the sorted colors, so class sizes are run
		// lengths.
		var targetColor uint64
		targetSize := n + 1
		for i := 0; i < n; {
			j := i
			for j < n && scratch[j] == scratch[i] {
				j++
			}
			if size := j - i; size > 1 && (size < targetSize ||
				(size == targetSize && scratch[i] < targetColor)) {
				targetSize, targetColor = size, scratch[i]
			}
			i = j
		}
		pick := -1
		for u := 0; u < n; u++ {
			if colors[u] == targetColor {
				pick = u
				break
			}
		}
		colors[pick] = stats.Mix64(colors[pick] ^ 0xA5A5_5A5A_DEAD_BEEF)
		classes, scratch = distinctColors(colors, scratch)
		refine()
	}
	obsCanonRounds.Add(int64(rounds))

	// Canonical order: by (final color, original ID). With a discrete
	// partition the ID tie-break is inert; it only matters for the
	// residual-tie case documented on Canon.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if colors[order[a]] != colors[order[b]] {
			return colors[order[a]] < colors[order[b]]
		}
		return order[a] < order[b]
	})
	labeling := make([]int32, n)
	for ci, u := range order {
		labeling[u] = int32(ci)
	}

	return &Canonical{
		Labeling: labeling,
		FP:       fingerprintCanonical(g, order, labeling),
		Profile:  degreeProfile(g),
	}
}

// canonEdge is one adjacency entry in canonical vertex space.
type canonEdge struct {
	v int32
	w int64
}

// fingerprintCanonical hashes the canonically relabeled adjacency into
// two independent 64-bit lanes.
func fingerprintCanonical(g *Graph, order []int, labeling []int32) Fingerprint {
	h0 := h64(0x517C_C1B7_2722_0A95 ^ uint64(g.n))
	h1 := h64(0x2545_F491_4F6C_DD1D ^ uint64(g.n))
	var row []canonEdge
	for _, u := range order {
		cols, ws := g.Row(u)
		row = row[:0]
		for i, v := range cols {
			row = append(row, canonEdge{v: labeling[v], w: ws[i]})
		}
		sort.Slice(row, func(i, j int) bool { return row[i].v < row[j].v })
		h0 = stats.FoldSeq(h0, uint64(len(row)))
		h1 = stats.FoldSeq(h1, uint64(len(row))^0xFF)
		for _, e := range row {
			h0 = stats.FoldSeq(stats.FoldSeq(h0, uint64(e.v)), uint64(e.w))
			h1 = stats.FoldSeq(stats.FoldSeq(h1, uint64(e.w)), uint64(e.v))
		}
	}
	return Fingerprint{h0, h1}
}

// degreeProfile hashes the renumbering-invariant shape summary: the
// sorted multiset of per-vertex (degree, weighted degree) hashes plus
// the vertex count and total weight.
func degreeProfile(g *Graph) uint64 {
	hs := make([]uint64, g.n)
	for u := 0; u < g.n; u++ {
		deg := uint64(g.rowPtr[u+1] - g.rowPtr[u])
		hs[u] = stats.Mix64(h64(deg) ^ h64(uint64(g.wdeg[u])*3+1))
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	p := h64(uint64(g.n) ^ 0xABCD_EF01_2345_6789)
	for _, h := range hs {
		p = stats.FoldSeq(p, h)
	}
	return stats.FoldSeq(p, uint64(g.totalW))
}
