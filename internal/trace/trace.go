// Package trace represents memory access traces over abstract data items.
//
// A trace is the input to the data-placement problem: an ordered sequence
// of read/write accesses to items identified by small integers. Traces are
// produced by the workload generators (standing in for compiler-extracted
// variable access dumps), can be saved to and loaded from a line-oriented
// text format, and expose the statistics the placement algorithms and the
// evaluation harness need (frequencies, transition counts, reuse
// distances).
package trace

import (
	"fmt"
	"sort"
)

// Access is a single trace event: which item, and whether it is a write.
type Access struct {
	Item  int
	Write bool
}

// Trace is an ordered access sequence over items 0..NumItems-1.
type Trace struct {
	// Name labels the workload that produced the trace.
	Name string
	// NumItems is the number of distinct addressable items. Item IDs in
	// Accesses must lie in [0, NumItems).
	NumItems int
	// Accesses is the ordered event sequence.
	Accesses []Access
}

// New returns an empty trace for n items.
func New(name string, n int) *Trace {
	return &Trace{Name: name, NumItems: n}
}

// Read appends a read of item to the trace.
func (t *Trace) Read(item int) { t.Accesses = append(t.Accesses, Access{Item: item}) }

// Write appends a write of item to the trace.
func (t *Trace) Write(item int) { t.Accesses = append(t.Accesses, Access{Item: item, Write: true}) }

// Len returns the number of accesses.
func (t *Trace) Len() int { return len(t.Accesses) }

// Validate checks that every access references a valid item.
func (t *Trace) Validate() error {
	if t.NumItems <= 0 {
		return fmt.Errorf("trace %q: NumItems = %d, want > 0", t.Name, t.NumItems)
	}
	for i, a := range t.Accesses {
		if a.Item < 0 || a.Item >= t.NumItems {
			return fmt.Errorf("trace %q: access %d references item %d outside [0,%d)",
				t.Name, i, a.Item, t.NumItems)
		}
	}
	return nil
}

// Items returns the sequence of item IDs, dropping the read/write flag.
// Placement algorithms that only care about adjacency use this view.
func (t *Trace) Items() []int {
	ids := make([]int, len(t.Accesses))
	for i, a := range t.Accesses {
		ids[i] = a.Item
	}
	return ids
}

// Touched returns the set of items that actually appear in the trace, as a
// sorted slice. NumItems may exceed len(Touched()) when some items are
// declared but never accessed.
func (t *Trace) Touched() []int {
	seen := make([]bool, t.NumItems)
	for _, a := range t.Accesses {
		seen[a.Item] = true
	}
	var out []int
	for i, s := range seen {
		if s {
			out = append(out, i)
		}
	}
	return out
}

// Slice returns a sub-trace covering accesses [lo, hi).
func (t *Trace) Slice(lo, hi int) (*Trace, error) {
	if lo < 0 || hi > len(t.Accesses) || lo > hi {
		return nil, fmt.Errorf("trace %q: slice [%d,%d) outside [0,%d]",
			t.Name, lo, hi, len(t.Accesses))
	}
	c := &Trace{Name: t.Name, NumItems: t.NumItems}
	c.Accesses = append([]Access(nil), t.Accesses[lo:hi]...)
	return c, nil
}

// Frequencies returns, for each item, how many times it is accessed.
func (t *Trace) Frequencies() []int64 {
	f := make([]int64, t.NumItems)
	for _, a := range t.Accesses {
		f[a.Item]++
	}
	return f
}

// ReadWriteCounts returns the number of reads and writes in the trace.
func (t *Trace) ReadWriteCounts() (reads, writes int64) {
	for _, a := range t.Accesses {
		if a.Write {
			writes++
		} else {
			reads++
		}
	}
	return reads, writes
}

// Transitions returns the symmetric transition-count map: for every pair
// of consecutive accesses to distinct items u != v, the count of the
// unordered pair {u,v}. This is the edge-weight function of the access
// transition graph.
func (t *Trace) Transitions() map[[2]int]int64 {
	m := make(map[[2]int]int64)
	for i := 1; i < len(t.Accesses); i++ {
		u, v := t.Accesses[i-1].Item, t.Accesses[i].Item
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		m[[2]int{u, v}]++
	}
	return m
}

// ReuseDistances returns the distribution of reuse distances: for each
// access to an item seen before, the number of *distinct* other items
// accessed since its previous access. The result maps distance to count.
// Cold (first) accesses are not counted.
func (t *Trace) ReuseDistances() map[int]int64 {
	// Classic stack-distance computation with a move-to-front list.
	// O(T * D) where D is the stack depth actually reached; fine for the
	// trace sizes used here and has no dependencies.
	dist := make(map[int]int64)
	var stack []int // most recent first
	posOf := make(map[int]int)
	for _, a := range t.Accesses {
		if p, ok := posOf[a.Item]; ok {
			dist[p]++
			// Move to front.
			copy(stack[1:p+1], stack[0:p])
			stack[0] = a.Item
			for i := 0; i <= p; i++ {
				posOf[stack[i]] = i
			}
			continue
		}
		stack = append(stack, 0)
		copy(stack[1:], stack[0:len(stack)-1])
		stack[0] = a.Item
		for i := range stack {
			posOf[stack[i]] = i
		}
	}
	return dist
}

// Stats summarizes a trace for reporting.
type Stats struct {
	Name        string
	Length      int
	NumItems    int
	Touched     int
	Reads       int64
	Writes      int64
	Transitions int     // distinct adjacent pairs
	MeanReuse   float64 // mean reuse distance over non-cold accesses (-1 if none)
}

// Summarize computes the descriptive statistics used in experiment E1.
func (t *Trace) Summarize() Stats {
	r, w := t.ReadWriteCounts()
	s := Stats{
		Name:        t.Name,
		Length:      t.Len(),
		NumItems:    t.NumItems,
		Touched:     len(t.Touched()),
		Reads:       r,
		Writes:      w,
		Transitions: len(t.Transitions()),
	}
	var sum, cnt int64
	for d, c := range t.ReuseDistances() {
		sum += int64(d) * c
		cnt += c
	}
	if cnt == 0 {
		s.MeanReuse = -1
	} else {
		s.MeanReuse = float64(sum) / float64(cnt)
	}
	return s
}

// HotItems returns the item IDs sorted by descending access frequency,
// breaking ties by ascending ID for determinism.
func (t *Trace) HotItems() []int {
	f := t.Frequencies()
	ids := make([]int, t.NumItems)
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool {
		if f[ids[a]] != f[ids[b]] {
			return f[ids[a]] > f[ids[b]]
		}
		return ids[a] < ids[b]
	})
	return ids
}
