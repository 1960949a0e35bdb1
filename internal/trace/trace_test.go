package trace

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func buildTrace(name string, n int, seq ...int) *Trace {
	t := New(name, n)
	for i, it := range seq {
		if i%3 == 2 {
			t.Write(it)
		} else {
			t.Read(it)
		}
	}
	return t
}

func TestValidate(t *testing.T) {
	tr := buildTrace("ok", 4, 0, 1, 2, 3)
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if err := New("empty", 1).Validate(); err != nil {
		t.Errorf("access-free trace rejected: %v", err)
	}
	bad := New("bad", 2)
	bad.Read(2)
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range item accepted")
	}
	neg := New("neg", 2)
	neg.Read(-1)
	if err := neg.Validate(); err == nil {
		t.Error("negative item accepted")
	}
	zero := New("zero", 0)
	if err := zero.Validate(); err == nil {
		t.Error("zero NumItems accepted")
	}
}

// A full-range Slice is an independent copy of the trace.
func TestCloneIndependence(t *testing.T) {
	a := buildTrace("a", 3, 0, 1, 2)
	b, err := a.Slice(0, a.Len())
	if err != nil {
		t.Fatal(err)
	}
	b.Read(0)
	b.Accesses[0].Item = 2
	if a.Len() != 3 || a.Accesses[0].Item != 0 {
		t.Error("Slice shares storage with the original")
	}
}

func TestItemsAndTouched(t *testing.T) {
	tr := buildTrace("t", 6, 4, 1, 4, 1)
	if got := tr.Items(); !reflect.DeepEqual(got, []int{4, 1, 4, 1}) {
		t.Errorf("Items = %v", got)
	}
	if got := tr.Touched(); !reflect.DeepEqual(got, []int{1, 4}) {
		t.Errorf("Touched = %v", got)
	}
}

func TestSlice(t *testing.T) {
	tr := buildTrace("t", 5, 0, 1, 2, 3, 4)
	s, err := tr.Slice(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Items(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("Slice items = %v", got)
	}
	for _, bad := range [][2]int{{-1, 2}, {0, 6}, {3, 2}} {
		if _, err := tr.Slice(bad[0], bad[1]); err == nil {
			t.Errorf("Slice(%d,%d) accepted", bad[0], bad[1])
		}
	}
}

func TestFrequenciesAndRW(t *testing.T) {
	tr := New("t", 3)
	tr.Read(0)
	tr.Read(1)
	tr.Write(1)
	tr.Write(2)
	f := tr.Frequencies()
	if !reflect.DeepEqual(f, []int64{1, 2, 1}) {
		t.Errorf("Frequencies = %v", f)
	}
	r, w := tr.ReadWriteCounts()
	if r != 2 || w != 2 {
		t.Errorf("ReadWriteCounts = %d,%d, want 2,2", r, w)
	}
}

func TestReuseDistances(t *testing.T) {
	// Sequence: a b c a  -> reuse of a at stack distance 2.
	tr := buildTrace("t", 3, 0, 1, 2, 0)
	d := tr.ReuseDistances()
	if !reflect.DeepEqual(d, map[int]int64{2: 1}) {
		t.Errorf("ReuseDistances = %v, want map[2:1]", d)
	}
	// Immediate reuse has distance 0.
	tr2 := buildTrace("t2", 2, 0, 0, 1, 1)
	d2 := tr2.ReuseDistances()
	if !reflect.DeepEqual(d2, map[int]int64{0: 2}) {
		t.Errorf("ReuseDistances = %v, want map[0:2]", d2)
	}
}

func TestSummarize(t *testing.T) {
	tr := buildTrace("sum", 5, 0, 1, 0, 2)
	s := tr.Summarize()
	if s.Name != "sum" || s.Length != 4 || s.NumItems != 5 || s.Touched != 3 {
		t.Errorf("Stats basic fields wrong: %+v", s)
	}
	if s.Reads+s.Writes != 4 {
		t.Errorf("Stats rw = %d+%d, want 4 total", s.Reads, s.Writes)
	}
	if s.MeanReuse != 1 { // single reuse of item 0 at distance 1
		t.Errorf("Stats.MeanReuse = %g, want 1", s.MeanReuse)
	}
	cold := buildTrace("cold", 3, 0, 1, 2)
	if s := cold.Summarize(); s.MeanReuse != -1 {
		t.Errorf("MeanReuse with no reuses = %g, want -1", s.MeanReuse)
	}
}

func TestHotItems(t *testing.T) {
	tr := buildTrace("t", 4, 3, 3, 3, 1, 1, 0)
	got := tr.HotItems()
	want := []int{3, 1, 0, 2} // 2 unaccessed, ties by ID
	if !reflect.DeepEqual(got, want) {
		t.Errorf("HotItems = %v, want %v", got, want)
	}
}

// Property: number of reuses equals Len - Touched (every non-first access
// to an item is a reuse).
func TestReuseCountInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(15) + 1
		tr := New("p", n)
		for i := 0; i < 200; i++ {
			tr.Read(rng.Intn(n))
		}
		var reuses int64
		for _, c := range tr.ReuseDistances() {
			reuses += c
		}
		return reuses == int64(tr.Len()-len(tr.Touched()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
