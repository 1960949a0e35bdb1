package workload

import (
	"reflect"
	"testing"
)

func TestConv2DShape(t *testing.T) {
	out := 4
	tr := Conv2D(out)
	in := out + 2
	if tr.NumItems != in*in+9+out*out {
		t.Errorf("NumItems = %d", tr.NumItems)
	}
	if tr.Len() != out*out*(9*2)+out*out {
		t.Errorf("Len = %d", tr.Len())
	}
	// Outputs are write-only, inputs and weights read-only.
	for _, a := range tr.Accesses {
		isOutput := a.Item >= in*in+9
		if isOutput != a.Write {
			t.Fatalf("access %+v violates read/write roles", a)
		}
	}
	// Every item touched.
	if got := len(tr.Touched()); got != tr.NumItems {
		t.Errorf("Touched = %d, want %d", got, tr.NumItems)
	}
}

func TestConv2DPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Conv2D(0) did not panic")
		}
	}()
	Conv2D(0)
}

func TestSpMVShape(t *testing.T) {
	n, nnz, reps := 16, 3, 5
	tr := SpMV(n, nnz, reps, 7)
	if tr.NumItems != 2*n {
		t.Errorf("NumItems = %d", tr.NumItems)
	}
	if tr.Len() != reps*n*(nnz+1) {
		t.Errorf("Len = %d", tr.Len())
	}
	// y is write-only, x read-only.
	for _, a := range tr.Accesses {
		if (a.Item >= n) != a.Write {
			t.Fatalf("access %+v violates vector roles", a)
		}
	}
	// The sparsity pattern is static: repetitions are identical.
	per := tr.Len() / reps
	for i := 0; i < per; i++ {
		if tr.Accesses[i] != tr.Accesses[per+i] {
			t.Fatal("pattern differs across repetitions")
		}
	}
}

func TestSpMVClampsNNZ(t *testing.T) {
	tr := SpMV(4, 100, 1, 1)
	if tr.Len() != 4*(4+1) {
		t.Errorf("Len = %d, want nnz clamped to n", tr.Len())
	}
}

func TestMarkovStaysInRangeAndLocal(t *testing.T) {
	n := 32
	tr := Markov(n, 5000, 9)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5000 {
		t.Errorf("Len = %d", tr.Len())
	}
	// Recover the hidden chain coordinates: the relabeling is a
	// bijection, so consecutive accesses must be within 3 steps in the
	// hidden space. Verify through the transition graph instead: the
	// graph of a locality walk has bounded degree (each hidden position
	// has <= 6 neighbors).
	g := transitionGraph(t, tr)
	for item := 0; item < g.N(); item++ {
		if d := g.Degree(item); d > 6 {
			t.Fatalf("item %d has %d distinct neighbors, want <= 6", item, d)
		}
	}
}

// TestMarkovShortWalks covers walks with fewer items than the longest
// step (3), where one step can cross both ends: each access must stay a
// valid item. Markov panicked with an out-of-range index for n = 2 and 3
// before the reflection repeated.
func TestMarkovShortWalks(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for seed := int64(1); seed <= 20; seed++ {
			tr := Markov(n, 500, seed)
			if err := tr.Validate(); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

func TestMarkovSeedChangesRelabeling(t *testing.T) {
	a := Markov(16, 200, 1)
	b := Markov(16, 200, 2)
	if reflect.DeepEqual(a.Accesses, b.Accesses) {
		t.Error("different seeds produced identical walks")
	}
}

func TestPhasedShape(t *testing.T) {
	tr := Phased(16, 1000, 4, 1.2, 3)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1000 || tr.NumItems != 16 {
		t.Errorf("len=%d items=%d", tr.Len(), tr.NumItems)
	}
	// Phases differ: the hottest item of phase 1 should differ from
	// phase 2's with overwhelming probability.
	hot := func(lo, hi int) int {
		counts := map[int]int{}
		for _, a := range tr.Accesses[lo:hi] {
			counts[a.Item]++
		}
		best, bestC := -1, -1
		for it, c := range counts {
			if c > bestC {
				best, bestC = it, c
			}
		}
		return best
	}
	h1 := hot(0, 250)
	different := false
	for p := 1; p < 4; p++ {
		if hot(p*250, (p+1)*250) != h1 {
			different = true
		}
	}
	if !different {
		t.Error("hot set never rotated across phases")
	}
	// phases < 1 clamps.
	if Phased(4, 100, 0, 1.0, 1).Len() != 100 {
		t.Error("phases=0 not clamped")
	}
}
