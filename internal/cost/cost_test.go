package cost

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/trace"
)

func lineGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	var es []graph.Edge
	for i := 0; i+1 < n; i++ {
		es = append(es, graph.Edge{U: i, V: i + 1, W: 1})
	}
	g, err := graph.FromEdges(n, es)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLinearOnLine(t *testing.T) {
	g := lineGraph(t, 4)
	// Identity: each of 3 edges at distance 1.
	c, err := Linear(g, layout.Identity(4))
	if err != nil || c != 3 {
		t.Errorf("identity cost = %d, %v; want 3", c, err)
	}
	// Reversal has the same cost.
	rev := layout.Placement{3, 2, 1, 0}
	c, err = Linear(g, rev)
	if err != nil || c != 3 {
		t.Errorf("reversed cost = %d, %v; want 3", c, err)
	}
	// Interleaved placement 0,2,1,3 -> slots: item0=0,item1=2,item2=1,item3=3.
	p := layout.Placement{0, 2, 1, 3}
	c, err = Linear(g, p)
	// Edges: (0,1): |0-2|=2; (1,2): |2-1|=1; (2,3): |1-3|=2 -> 5.
	if err != nil || c != 5 {
		t.Errorf("interleaved cost = %d, %v; want 5", c, err)
	}
}

func TestLinearSizeMismatch(t *testing.T) {
	g := lineGraph(t, 4)
	if _, err := Linear(g, layout.Identity(3)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestSinglePortMatchesManualWalk(t *testing.T) {
	// Items 0..3 at identity slots, port at 0.
	seq := []int{2, 0, 3, 3, 1}
	c, err := MultiPort(seq, layout.Identity(4), []int{0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Walk: 0->2 (2), 2->0 (2), 0->3 (3), 3->3 (0), 3->1 (2) = 9.
	if c != 9 {
		t.Errorf("cost = %d, want 9", c)
	}
}

func TestSinglePortEqualsLinearPlusSeek(t *testing.T) {
	// For a single-port tape, MultiPort = Linear + initial seek.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		tr := trace.New("p", n)
		for i := 0; i < 200; i++ {
			tr.Read(rng.Intn(n))
		}
		g, err := graph.FromTrace(tr)
		if err != nil {
			return false
		}
		order := rng.Perm(n)
		p, err := layout.FromOrder(order)
		if err != nil {
			return false
		}
		port := rng.Intn(n)
		lin, err := Linear(g, p)
		if err != nil {
			return false
		}
		sp, err := MultiPort(tr.Items(), p, []int{port}, n)
		if err != nil {
			return false
		}
		seek := int64(abs(p[tr.Accesses[0].Item] - port))
		return sp == lin+seek
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMultiPortNeverWorseThanOnePort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16
		var seq []int
		for i := 0; i < 300; i++ {
			seq = append(seq, rng.Intn(n))
		}
		p := layout.Identity(n)
		ports := []int{4, 12}
		multi, err := MultiPort(seq, p, ports, n)
		if err != nil {
			return false
		}
		single, err := MultiPort(seq, p, ports[:1], n)
		if err != nil {
			return false
		}
		return multi <= single
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMultiPortValidation(t *testing.T) {
	p := layout.Identity(4)
	if _, err := MultiPort([]int{0}, p, nil, 4); err == nil {
		t.Error("no ports accepted")
	}
	if _, err := MultiPort([]int{0}, p, []int{4}, 4); err == nil {
		t.Error("port out of range accepted")
	}
	if _, err := MultiPort([]int{7}, p, []int{0}, 4); err == nil {
		t.Error("item out of range accepted")
	}
	if _, err := MultiPort([]int{0}, layout.Placement{0, 0}, []int{0}, 4); err == nil {
		t.Error("invalid placement accepted")
	}
}

func TestMultiTapeCrossTapeTransitionsFree(t *testing.T) {
	// Two items on different tapes, both at their port slot: alternating
	// accesses cost nothing after the initial (zero) seeks.
	mp := layout.MultiPlacement{Tape: []int{0, 1}, Slot: []int{1, 1}}
	seq := []int{0, 1, 0, 1, 0, 1}
	c, err := MultiTape(seq, mp, 2, 4, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if c != 0 {
		t.Errorf("cost = %d, want 0", c)
	}
}

func TestMultiTapeDegeneratesToMultiPort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12
		var seq []int
		for i := 0; i < 200; i++ {
			seq = append(seq, rng.Intn(n))
		}
		order := rng.Perm(n)
		p, err := layout.FromOrder(order)
		if err != nil {
			return false
		}
		ports := []int{3, 9}
		want, err := MultiPort(seq, p, ports, n)
		if err != nil {
			return false
		}
		got, err := MultiTape(seq, layout.SingleTape(p), 1, n, ports)
		if err != nil {
			return false
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMultiTapeValidation(t *testing.T) {
	mp := layout.MultiPlacement{Tape: []int{0}, Slot: []int{0}}
	if _, err := MultiTape([]int{0}, mp, 1, 4, nil); err == nil {
		t.Error("no ports accepted")
	}
	if _, err := MultiTape([]int{0}, mp, 1, 4, []int{9}); err == nil {
		t.Error("bad port accepted")
	}
	if _, err := MultiTape([]int{3}, mp, 1, 4, []int{0}); err == nil {
		t.Error("bad item accepted")
	}
}

// Property: Linear is invariant under mirroring the placement.
func TestLinearMirrorInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(15) + 2
		var es []graph.Edge
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				es = append(es, graph.Edge{U: u, V: v, W: int64(rng.Intn(5) + 1)})
			}
		}
		g, err := graph.FromEdges(n, es)
		if err != nil {
			return false
		}
		p, err := layout.FromOrder(rng.Perm(n))
		if err != nil {
			return false
		}
		a, err := Linear(g, p)
		if err != nil {
			return false
		}
		m := make(layout.Placement, n)
		for item, s := range p {
			m[item] = n - 1 - s
		}
		b, err := Linear(g, m)
		if err != nil {
			return false
		}
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
