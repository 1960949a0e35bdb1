package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/dwm"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/trace"
)

func TestRoundRobinPartition(t *testing.T) {
	pt := RoundRobinPartition(10, 4)
	if err := pt.Validate(4, 3); err != nil {
		t.Fatal(err)
	}
	for i, tp := range pt {
		if tp != i%4 {
			t.Errorf("item %d on tape %d", i, tp)
		}
	}
}

func TestHashPartitionRespectsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tapes := rng.Intn(7) + 1
		capacity := rng.Intn(20) + 1
		n := rng.Intn(tapes*capacity) + 1
		pt, err := HashPartition(n, tapes, capacity)
		if err != nil {
			return false
		}
		return pt.Validate(tapes, capacity) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	if _, err := HashPartition(10, 2, 4); err == nil {
		t.Error("overfull accepted")
	}
}

func TestContiguousPartition(t *testing.T) {
	tr := seqTrace(6, 5, 4, 3, 2, 1, 0)
	pt, err := ContiguousPartition(tr, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Validate(2, 3); err != nil {
		t.Fatal(err)
	}
	// First-touch order is 5,4,3,2,1,0: tape0 = {5,4,3}, tape1 = {2,1,0}.
	for _, item := range []int{5, 4, 3} {
		if pt[item] != 0 {
			t.Errorf("item %d on tape %d, want 0", item, pt[item])
		}
	}
	for _, item := range []int{2, 1, 0} {
		if pt[item] != 1 {
			t.Errorf("item %d on tape %d, want 1", item, pt[item])
		}
	}
	if _, err := ContiguousPartition(tr, 1, 3); err == nil {
		t.Error("overfull accepted")
	}
}

func TestAffinityPartitionSeparatesAlternators(t *testing.T) {
	// Items 0 and 1 alternate constantly; a 2-tape affinity partition
	// must put them on different tapes (their edge weight dominates).
	tr := trace.New("alt", 4)
	for i := 0; i < 100; i++ {
		tr.Read(0)
		tr.Read(1)
	}
	tr.Read(2)
	tr.Read(3)
	g, err := graph.FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := AffinityPartition(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pt[0] == pt[1] {
		t.Errorf("alternating items share tape %d (partition %v)", pt[0], pt)
	}
}

func TestAffinityPartitionCapacityAndValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 1
		tapes := rng.Intn(4) + 1
		capacity := (n+tapes-1)/tapes + rng.Intn(3)
		g := randGraph(rng, n, 3*n)
		pt, err := AffinityPartition(g, tapes, capacity)
		if err != nil {
			return false
		}
		return pt.Validate(tapes, capacity) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	g := randGraph(rand.New(rand.NewSource(1)), 10, 20)
	if _, err := AffinityPartition(g, 2, 4); err == nil {
		t.Error("overfull accepted")
	}
	if _, err := AffinityPartition(g, 0, 4); err == nil {
		t.Error("zero tapes accepted")
	}
}

// intraWeight returns the total transition weight between items that
// share a tape — the proxy objective AffinityPartition minimizes.
func intraWeight(pt Partition, g *graph.Graph) int64 {
	var s int64
	for _, e := range g.Edges() {
		if pt[e.U] == pt[e.V] {
			s += e.W
		}
	}
	return s
}

func TestAffinityBeatsRoundRobinOnIntraWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randGraph(rng, 32, 120)
	aff, err := AffinityPartition(g, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	rr := RoundRobinPartition(32, 4)
	if intraWeight(aff, g) > intraWeight(rr, g) {
		t.Errorf("affinity intra %d worse than round robin %d",
			intraWeight(aff, g), intraWeight(rr, g))
	}
}

func TestPartitionValidate(t *testing.T) {
	if err := (Partition{}).Validate(1, 1); err == nil {
		t.Error("empty accepted")
	}
	if err := (Partition{0, 2}).Validate(2, 4); err == nil {
		t.Error("bad tape accepted")
	}
	if err := (Partition{0, 0, 0}).Validate(2, 2); err == nil {
		t.Error("over capacity accepted")
	}
	if err := (Partition{0, 1, 0}).Validate(2, 2); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
}

func TestArrangePartitionProducesValidMultiPlacement(t *testing.T) {
	tr := firTrace()
	tapes, tapeLen := 2, 16
	ports := dwm.SpreadPorts(tapeLen, 1)
	g, err := graph.FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := AffinityPartition(g, tapes, tapeLen)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := ArrangePartition(tr, pt, tapes, tapeLen, ports)
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Validate(tapes, tapeLen); err != nil {
		t.Fatal(err)
	}
	// The multi-placement must honor the partition.
	for item, tp := range pt {
		if mp.Tape[item] != tp {
			t.Errorf("item %d on tape %d, partition says %d", item, mp.Tape[item], tp)
		}
	}
}

func TestArrangePartitionErrors(t *testing.T) {
	tr := seqTrace(4, 0, 1, 2, 3)
	if _, err := ArrangePartition(tr, Partition{0, 0}, 1, 8, []int{0}); err == nil {
		t.Error("partition size mismatch accepted")
	}
	if _, err := ArrangePartition(tr, Partition{0, 0, 0, 0}, 1, 8, nil); err == nil {
		t.Error("no ports accepted")
	}
	if _, err := ArrangePartition(tr, Partition{0, 0, 0, 9}, 1, 8, []int{0}); err == nil {
		t.Error("invalid partition accepted")
	}
}

func TestPlaceMultiTapeBeatsNaivePartitions(t *testing.T) {
	tr := firTrace()
	tapes, tapeLen := 2, 16
	ports := dwm.SpreadPorts(tapeLen, 1)
	seq := tr.Items()

	// The proposed multi-tape pipeline: affinity partition, then
	// per-tape arrangement.
	g, err := graph.FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := AffinityPartition(g, tapes, tapeLen)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := ArrangePartition(tr, pt, tapes, tapeLen, ports)
	if err != nil {
		t.Fatal(err)
	}
	proposed, err := cost.MultiTape(seq, mp, tapes, tapeLen, ports)
	if err != nil {
		t.Fatal(err)
	}

	// The naive baseline: round-robin tapes, items packed into slots in
	// ID order.
	rr := RoundRobinPartition(tr.NumItems, tapes)
	naive, err := naiveMultiPlacement(tr, rr, tapes, tapeLen)
	if err != nil {
		t.Fatal(err)
	}
	base, err := cost.MultiTape(seq, naive, tapes, tapeLen, ports)
	if err != nil {
		t.Fatal(err)
	}
	if proposed > base {
		t.Errorf("proposed multi-tape (%d) worse than naive round robin (%d)", proposed, base)
	}
}

// naiveMultiPlacement packs each tape's items into slots 0,1,2,... in item
// ID order, modeling a placement-unaware allocator.
func naiveMultiPlacement(tr *trace.Trace, pt Partition, tapes, tapeLen int) (layout.MultiPlacement, error) {
	mp := layout.NewMultiPlacement(tr.NumItems)
	next := make([]int, tapes)
	for item, tp := range pt {
		mp.Tape[item] = tp
		mp.Slot[item] = next[tp]
		next[tp]++
	}
	return mp, nil
}
