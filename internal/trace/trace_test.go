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

// compact has no caller outside tests; it stays here with the tests
// that pin it.
// compact renumbers items so that only touched items remain, preserving
// first-touch order, and returns the compacted trace together with the
// mapping from new IDs back to original IDs. The receiver is unchanged.
func compact(t *Trace) (*Trace, []int) {
	newID := make([]int, t.NumItems)
	for i := range newID {
		newID[i] = -1
	}
	var oldID []int
	c := &Trace{Name: t.Name}
	c.Accesses = make([]Access, len(t.Accesses))
	for i, a := range t.Accesses {
		if newID[a.Item] < 0 {
			newID[a.Item] = len(oldID)
			oldID = append(oldID, a.Item)
		}
		c.Accesses[i] = Access{Item: newID[a.Item], Write: a.Write}
	}
	c.NumItems = len(oldID)
	if c.NumItems == 0 {
		c.NumItems = 1 // keep the invariant NumItems > 0 for empty traces
	}
	return c, oldID
}

func TestCompact(t *testing.T) {
	tr := buildTrace("t", 10, 7, 2, 7, 9)
	c, oldID := compact(tr)
	if c.NumItems != 3 {
		t.Fatalf("compact NumItems = %d, want 3", c.NumItems)
	}
	if !reflect.DeepEqual(oldID, []int{7, 2, 9}) {
		t.Errorf("oldID = %v, want [7 2 9]", oldID)
	}
	if got := c.Items(); !reflect.DeepEqual(got, []int{0, 1, 0, 2}) {
		t.Errorf("compact Items = %v, want [0 1 0 2]", got)
	}
	// Read/write flags preserved.
	for i := range tr.Accesses {
		if tr.Accesses[i].Write != c.Accesses[i].Write {
			t.Errorf("access %d write flag changed", i)
		}
	}
	// Original untouched.
	if tr.NumItems != 10 {
		t.Error("compact mutated its input")
	}
}

func TestCompactEmpty(t *testing.T) {
	tr := New("empty", 5)
	c, oldID := compact(tr)
	if c.NumItems != 1 || len(oldID) != 0 || c.Len() != 0 {
		t.Errorf("compact empty: NumItems=%d oldID=%v len=%d", c.NumItems, oldID, c.Len())
	}
	if err := c.Validate(); err != nil {
		t.Errorf("compact empty invalid: %v", err)
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

func TestTransitions(t *testing.T) {
	tr := buildTrace("t", 3, 0, 1, 0, 0, 2, 1)
	m := tr.Transitions()
	want := map[[2]int]int64{
		{0, 1}: 2, // 0->1 and 1->0
		{0, 2}: 1,
		{1, 2}: 1,
	}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("Transitions = %v, want %v", m, want)
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
	if s.Transitions != 2 { // pairs {0,1} and {0,2}
		t.Errorf("Stats.Transitions = %d, want 2", s.Transitions)
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

// Property: sum of frequencies equals trace length; transition counts sum
// to at most Len-1.
func TestFrequencyTransitionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		tr := New("p", n)
		for i := 0; i < 300; i++ {
			tr.Read(rng.Intn(n))
		}
		var fs int64
		for _, c := range tr.Frequencies() {
			fs += c
		}
		if fs != int64(tr.Len()) {
			return false
		}
		var ts int64
		for _, c := range tr.Transitions() {
			ts += c
		}
		return ts <= int64(tr.Len()-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
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
