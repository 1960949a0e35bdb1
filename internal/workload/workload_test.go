package workload

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

func TestSuiteAllValidAndDeterministic(t *testing.T) {
	for _, g := range Suite() {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			a := g.Make(1)
			if err := a.Validate(); err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
			if a.Len() == 0 {
				t.Fatal("empty trace")
			}
			if a.Name == "" {
				t.Error("trace has no name")
			}
			b := g.Make(1)
			if !reflect.DeepEqual(a, b) {
				t.Error("generator not deterministic for equal seeds")
			}
		})
	}
}

func TestByName(t *testing.T) {
	g, err := ByName("fir")
	if err != nil || g.Name != "fir" {
		t.Errorf("ByName(fir) = %+v, %v", g, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) accepted")
	}
}

// Every suite name is unique and resolves, through ByName, to its own
// generator.
func TestNamesMatchesSuite(t *testing.T) {
	seen := map[string]bool{}
	for _, g := range Suite() {
		if seen[g.Name] {
			t.Errorf("duplicate suite name %q", g.Name)
		}
		seen[g.Name] = true
		got, err := ByName(g.Name)
		if err != nil || got.Name != g.Name || got.Description != g.Description {
			t.Errorf("ByName(%q) = %+v, %v", g.Name, got, err)
		}
	}
}

func TestFIRShape(t *testing.T) {
	taps, samples := 4, 3
	tr := FIR(taps, samples)
	if tr.NumItems != 2*taps {
		t.Errorf("NumItems = %d, want %d", tr.NumItems, 2*taps)
	}
	// Per sample: (taps-1) read+write pairs, 1 write, taps read pairs.
	want := samples * ((taps-1)*2 + 1 + taps*2)
	if tr.Len() != want {
		t.Errorf("Len = %d, want %d", tr.Len(), want)
	}
	// Delay-line neighbors must be adjacent in the trace.
	trans := tr.Transitions()
	if trans[[2]int{0, 1}] == 0 {
		t.Error("expected d[0]-d[1] adjacency")
	}
	// d[i] and c[i] are adjacent in the MAC loop.
	if trans[[2]int{1, taps + 1}] == 0 {
		t.Error("expected d[1]-c[1] adjacency")
	}
}

func TestIIRShape(t *testing.T) {
	tr := IIR(2, 5)
	if tr.NumItems != 14 {
		t.Errorf("NumItems = %d, want 14", tr.NumItems)
	}
	if tr.Len() != 5*2*11 {
		t.Errorf("Len = %d, want %d", tr.Len(), 5*2*11)
	}
	// No cross-section adjacency except at the section boundary
	// (w1 of sec0 -> a1 of sec1).
	trans := tr.Transitions()
	if trans[[2]int{0, 7 + 5}] == 0 {
		t.Error("expected sec0.w1 - sec1.a1 boundary adjacency")
	}
}

func TestMatMulShape(t *testing.T) {
	n := 3
	tr := MatMul(n)
	if tr.NumItems != 3*n*n {
		t.Errorf("NumItems = %d, want %d", tr.NumItems, 3*n*n)
	}
	if tr.Len() != n*n*(2*n)+n*n {
		t.Errorf("Len = %d, want %d", tr.Len(), n*n*2*n+n*n)
	}
	// Every item is touched.
	if got := len(tr.Touched()); got != 3*n*n {
		t.Errorf("Touched = %d, want %d", got, 3*n*n)
	}
	// C is write-only.
	for _, a := range tr.Accesses {
		if a.Item >= 2*n*n && !a.Write {
			t.Fatalf("read of C element %d", a.Item)
		}
	}
}

func TestFFTShape(t *testing.T) {
	n := 8
	tr := FFT(n)
	if tr.NumItems != n+n/2 {
		t.Errorf("NumItems = %d, want %d", tr.NumItems, n+n/2)
	}
	// log2(n) stages of n/2 butterflies, 5 accesses each, plus
	// bit-reversal swaps (4 accesses per swapped pair).
	swaps := 0
	for i := 0; i < n; i++ {
		// count pairs i < rev(i) for 3 bits
		r := (i&1)<<2 | (i & 2) | (i&4)>>2
		if i < r {
			swaps++
		}
	}
	want := swaps*4 + 3*(n/2)*5
	if tr.Len() != want {
		t.Errorf("Len = %d, want %d", tr.Len(), want)
	}
	// Twiddle items are read-only.
	for _, a := range tr.Accesses {
		if a.Item >= n && a.Write {
			t.Fatalf("write to twiddle %d", a.Item)
		}
	}
}

func TestFFTPanicsOnBadSize(t *testing.T) {
	for _, n := range []int{0, 1, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FFT(%d) did not panic", n)
				}
			}()
			FFT(n)
		}()
	}
}

func TestInsertionSortSortsAndSeedMatters(t *testing.T) {
	a := InsertionSort(20, 1)
	b := InsertionSort(20, 2)
	if reflect.DeepEqual(a.Accesses, b.Accesses) {
		t.Error("different seeds produced identical data-dependent traces")
	}
	if a.NumItems != 20 {
		t.Errorf("NumItems = %d", a.NumItems)
	}
	// Trace length bounded by O(m^2) accesses.
	if a.Len() < 19*2 || a.Len() > 20*20*3 {
		t.Errorf("suspicious trace length %d", a.Len())
	}
}

func TestStencilShape(t *testing.T) {
	cells, sweeps := 8, 2
	tr := Stencil1D(cells, sweeps)
	if tr.NumItems != 2*cells {
		t.Errorf("NumItems = %d", tr.NumItems)
	}
	// Per sweep: 2 boundary cells x2 accesses + (cells-2) interior x4.
	want := sweeps * (2*2 + (cells-2)*4)
	if tr.Len() != want {
		t.Errorf("Len = %d, want %d", tr.Len(), want)
	}
	// Sweep 0 writes only into B, sweep 1 only into A.
	half := tr.Len() / sweeps
	for i, a := range tr.Accesses {
		if !a.Write {
			continue
		}
		inB := a.Item >= cells
		if i < half && !inB {
			t.Fatalf("sweep 0 wrote into A at access %d", i)
		}
		if i >= half && inB {
			t.Fatalf("sweep 1 wrote into B at access %d", i)
		}
	}
}

func TestHistogramZipfSkew(t *testing.T) {
	tr := Histogram(32, 4000, 1.2, 7)
	f := tr.Frequencies()
	sort.Slice(f, func(i, j int) bool { return f[i] > f[j] })
	// The hottest bin should dominate the median bin decisively.
	if f[0] < 4*f[16] {
		t.Errorf("Zipf skew too weak: hottest %d vs median %d", f[0], f[16])
	}
	// Every access pair is read-then-write of the same bin.
	for i := 0; i < tr.Len(); i += 2 {
		if tr.Accesses[i].Write || !tr.Accesses[i+1].Write ||
			tr.Accesses[i].Item != tr.Accesses[i+1].Item {
			t.Fatalf("access pair %d malformed", i)
		}
	}
}

func TestPointerChaseIsCyclic(t *testing.T) {
	nodes, hops := 16, 64
	tr := PointerChase(nodes, hops, 3)
	if tr.Len() != hops {
		t.Fatalf("Len = %d, want %d", tr.Len(), hops)
	}
	// Successor must be a function: each item always followed by the same
	// item.
	next := map[int]int{}
	items := tr.Items()
	for i := 1; i < len(items); i++ {
		u, v := items[i-1], items[i]
		if w, ok := next[u]; ok && w != v {
			t.Fatalf("node %d has successors %d and %d", u, w, v)
		}
		next[u] = v
	}
	// A full cycle over 16 nodes in 64 hops touches all nodes.
	if got := len(tr.Touched()); got != nodes {
		t.Errorf("Touched = %d, want %d", got, nodes)
	}
}

func TestCRCShape(t *testing.T) {
	tr := CRC(100, 5)
	if tr.NumItems != 32 {
		t.Errorf("NumItems = %d, want 32", tr.NumItems)
	}
	if tr.Len() != 200 {
		t.Errorf("Len = %d, want 200", tr.Len())
	}
	// Alternates: even accesses in the high table [0,16), odd in [16,32).
	for i, a := range tr.Accesses {
		if i%2 == 0 && a.Item >= 16 {
			t.Fatalf("access %d: high-table read out of range: %d", i, a.Item)
		}
		if i%2 == 1 && a.Item < 16 {
			t.Fatalf("access %d: low-table read out of range: %d", i, a.Item)
		}
	}
}

func TestZigzagOrderIsPermutation(t *testing.T) {
	order := zigzagOrder(8)
	if len(order) != 64 {
		t.Fatalf("len = %d", len(order))
	}
	seen := map[int]bool{}
	for _, x := range order {
		if x < 0 || x >= 64 || seen[x] {
			t.Fatalf("bad zigzag entry %d", x)
		}
		seen[x] = true
	}
	// Standard zigzag prefix for 8x8: 0, 1, 8, 16, 9, 2, 3, 10 ...
	want := []int{0, 1, 8, 16, 9, 2, 3, 10}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order[%d] = %d, want %d (prefix %v)", i, order[i], w, order[:8])
		}
	}
}

func TestZigzagTrace(t *testing.T) {
	tr := Zigzag(3)
	if tr.Len() != 3*64 || tr.NumItems != 64 {
		t.Errorf("Len=%d NumItems=%d", tr.Len(), tr.NumItems)
	}
	// Blocks repeat the identical order.
	items := tr.Items()
	for i := 0; i < 64; i++ {
		if items[i] != items[64+i] || items[i] != items[128+i] {
			t.Fatal("blocks differ")
		}
	}
}

func TestUniformCoversItems(t *testing.T) {
	tr := Uniform(16, 2000, 11)
	if got := len(tr.Touched()); got != 16 {
		t.Errorf("Touched = %d, want 16", got)
	}
}

func TestZipfCumulativeProperties(t *testing.T) {
	cum := zipfCumulative(10, 1.0)
	if len(cum) != 10 {
		t.Fatalf("len = %d", len(cum))
	}
	prev := 0.0
	for i, c := range cum {
		if c < prev {
			t.Fatalf("cumulative not monotone at %d: %v", i, cum)
		}
		prev = c
	}
	if math.Abs(cum[9]-1.0) > 1e-12 {
		t.Errorf("cumulative does not end at 1: %g", cum[9])
	}
	// First rank of Zipf(1) over 10 items has probability 1/H(10) ~ 0.341.
	if math.Abs(cum[0]-0.3414) > 0.01 {
		t.Errorf("first mass = %g, want ~0.341", cum[0])
	}
}
