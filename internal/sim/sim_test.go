package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/dwm"
	"repro/internal/layout"
	"repro/internal/trace"
	"repro/internal/workload"
)

func device(t *testing.T, tapes, slots, ports int) *dwm.Device {
	t.Helper()
	d, err := dwm.NewDevice(dwm.Geometry{Tapes: tapes, DomainsPerTape: slots, PortsPerTape: ports},
		dwm.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidatesPlacement(t *testing.T) {
	d := device(t, 1, 8, 1)
	bad := layout.MultiPlacement{Tape: []int{0, 0}, Slot: []int{1, 1}}
	if _, err := New(d, bad, HeadStay); err == nil {
		t.Error("colliding placement accepted")
	}
	if _, err := NewSingleTape(device(t, 2, 8, 1), layout.Identity(4), HeadStay); err == nil {
		t.Error("multi-tape device accepted by NewSingleTape")
	}
}

func TestRunCountsAccesses(t *testing.T) {
	d := device(t, 1, 16, 1)
	s, err := NewSingleTape(d, layout.Identity(8), HeadStay)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("t", 8)
	tr.Read(0)
	tr.Write(3)
	tr.Read(3)
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 3 || res.Counters.Reads != 2 || res.Counters.Writes != 1 {
		t.Errorf("result = %+v", res)
	}
	if res.LatencyNS <= 0 || res.EnergyPJ <= 0 {
		t.Errorf("latency/energy not accumulated: %+v", res)
	}
}

func TestRunMatchesAnalyticSingleTape(t *testing.T) {
	// The simulator's shift count must equal cost.MultiPort exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		slots := n + rng.Intn(8)
		ports := rng.Intn(3) + 1
		if ports > slots {
			ports = slots
		}
		g := dwm.Geometry{Tapes: 1, DomainsPerTape: slots, PortsPerTape: ports}
		dev, err := dwm.NewDevice(g, dwm.DefaultParams())
		if err != nil {
			return false
		}
		// Random injective placement into slots.
		slotPerm := rng.Perm(slots)
		p := make(layout.Placement, n)
		copy(p, slotPerm[:n])
		tr := trace.New("p", n)
		for i := 0; i < 300; i++ {
			if rng.Intn(2) == 0 {
				tr.Read(rng.Intn(n))
			} else {
				tr.Write(rng.Intn(n))
			}
		}
		s, err := NewSingleTape(dev, p, HeadStay)
		if err != nil {
			return false
		}
		res, err := s.Run(tr)
		if err != nil {
			return false
		}
		want, err := cost.MultiPort(tr.Items(), p, g.PortPositions(), slots)
		if err != nil {
			return false
		}
		return res.Counters.Shifts == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRunMatchesAnalyticMultiTape(t *testing.T) {
	// Per tape and in total, the simulator's shift counts must equal
	// cost.MultiTapeBreakdown and cost.MultiTape exactly, with one to
	// three ports per tape.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tapes := rng.Intn(3) + 2
		slots := 8
		n := rng.Intn(tapes*slots-1) + 1
		g := dwm.Geometry{Tapes: tapes, DomainsPerTape: slots, PortsPerTape: rng.Intn(3) + 1}
		dev, err := dwm.NewDevice(g, dwm.DefaultParams())
		if err != nil {
			return false
		}
		// Random valid multi-placement.
		locs := rng.Perm(tapes * slots)[:n]
		mp := layout.NewMultiPlacement(n)
		for i, loc := range locs {
			mp.Tape[i] = loc / slots
			mp.Slot[i] = loc % slots
		}
		tr := trace.New("p", n)
		for i := 0; i < 400; i++ {
			tr.Read(rng.Intn(n))
		}
		s, err := New(dev, mp, HeadStay)
		if err != nil {
			return false
		}
		res, err := s.Run(tr)
		if err != nil {
			return false
		}
		want, err := cost.MultiTape(tr.Items(), mp, tapes, slots, g.PortPositions())
		if err != nil || res.Counters.Shifts != want {
			return false
		}
		per, err := cost.MultiTapeBreakdown(tr.Items(), mp, tapes, slots, g.PortPositions())
		if err != nil || len(per) != len(res.PerTape) {
			return false
		}
		for i, c := range res.PerTape {
			if c.Shifts != per[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRunPerTapeSumsToTotal(t *testing.T) {
	d := device(t, 4, 8, 1)
	mp := layout.NewMultiPlacement(16)
	for i := 0; i < 16; i++ {
		mp.Tape[i] = i % 4
		mp.Slot[i] = i / 4
	}
	s, err := New(d, mp, HeadStay)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Uniform(16, 500, 3)
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	var sum dwm.Counters
	for _, c := range res.PerTape {
		sum = sum.Add(c)
	}
	if sum != res.Counters {
		t.Errorf("per-tape sum %+v != total %+v", sum, res.Counters)
	}
}

func TestRunIsPerRunNotCumulative(t *testing.T) {
	d := device(t, 1, 8, 1)
	s, err := NewSingleTape(d, layout.Identity(8), HeadStay)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("t", 8)
	tr.Read(7)
	tr.Read(0)
	r1, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Counters.Reads != r1.Counters.Reads {
		t.Errorf("second run reads %d != first %d", r2.Counters.Reads, r1.Counters.Reads)
	}
	// Port at slot 4. Run 1 from home: |7-4| + |0-7| = 10. Run 2 starts
	// with the head parked at slot 0 (offset -4): |7-0| + 7 = 14. If Run
	// returned cumulative counters, r2 would report 24.
	if r1.Counters.Shifts != 10 {
		t.Errorf("first run shifts = %d, want 10", r1.Counters.Shifts)
	}
	if r2.Counters.Shifts != 14 {
		t.Errorf("second run shifts = %d, want 14 (per-run, head parked)", r2.Counters.Shifts)
	}
}

func TestHeadReturnChargesHoming(t *testing.T) {
	dStay := device(t, 1, 16, 1)
	dRet := device(t, 1, 16, 1)
	p := layout.Identity(16)
	tr := trace.New("t", 16)
	tr.Read(15) // park far from home

	stay, err := NewSingleTape(dStay, p, HeadStay)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := NewSingleTape(dRet, p, HeadReturn)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := stay.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ret.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Counters.Shifts <= rs.Counters.Shifts {
		t.Errorf("HeadReturn (%d shifts) should exceed HeadStay (%d)",
			rr.Counters.Shifts, rs.Counters.Shifts)
	}
	// After homing, a rerun costs exactly the same as the first run.
	rr2, err := ret.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rr2.Counters.Shifts != rr.Counters.Shifts {
		t.Errorf("homed rerun shifts %d != first %d", rr2.Counters.Shifts, rr.Counters.Shifts)
	}
}

func TestRunRejectsForeignTrace(t *testing.T) {
	d := device(t, 1, 8, 1)
	s, err := NewSingleTape(d, layout.Identity(4), HeadStay)
	if err != nil {
		t.Fatal(err)
	}
	big := trace.New("big", 9)
	big.Read(8)
	if _, err := s.Run(big); err == nil {
		t.Error("trace larger than placement accepted")
	}
	bad := trace.New("bad", 2)
	bad.Read(5)
	if _, err := s.Run(bad); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestAddressLookup(t *testing.T) {
	d := device(t, 2, 8, 1)
	mp := layout.MultiPlacement{Tape: []int{1, 0}, Slot: []int{3, 7}}
	s, err := New(d, mp, HeadStay)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Address(0)
	if err != nil || a != (dwm.Address{Tape: 1, Slot: 3}) {
		t.Errorf("Address(0) = %+v, %v", a, err)
	}
	if _, err := s.Address(5); err == nil {
		t.Error("bad item accepted")
	}
	if s.dev != d {
		t.Error("New did not keep the device")
	}
}

func TestShiftDistribution(t *testing.T) {
	// Port at slot 4 of an 8-slot tape, identity placement.
	// Accesses 4 (0 shifts), 0 (4), 0 (0), 7 (7): sorted [0,0,4,7].
	d := device(t, 1, 8, 1)
	s, err := NewSingleTape(d, layout.Identity(8), HeadStay)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("t", 8)
	for _, it := range []int{4, 0, 0, 7} {
		tr.Read(it)
	}
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	sd := res.ShiftDist
	if sd.Max != 7 {
		t.Errorf("Max = %d, want 7", sd.Max)
	}
	if sd.P50 != 0 { // nearest-rank: index ceil(0.5*4)-1 = 1 -> 0
		t.Errorf("P50 = %d, want 0", sd.P50)
	}
	if sd.Mean != 11.0/4 {
		t.Errorf("Mean = %g, want 2.75", sd.Mean)
	}
	if sd.P95 != 7 { // sorted [0,0,4,7], nearest-rank index ceil(0.95*4)-1 = 3 -> 7
		t.Errorf("P95 = %d, want 7", sd.P95)
	}
	// Distribution totals must agree with the counter.
	if int64(sd.Mean*float64(res.Accesses)+0.5) != res.Counters.Shifts {
		t.Errorf("mean*n = %g inconsistent with total %d", sd.Mean*4, res.Counters.Shifts)
	}
}

// Regression for the percentile floor bias: distribution must use
// nearest-rank (index ceil(q·n)-1), not int(q·(n-1)), which picked an
// element below the true percentile on small samples.
func TestDistributionNearestRank(t *testing.T) {
	cases := []struct {
		name     string
		in       []int
		p50, p95 int
	}{
		{"single", []int{9}, 9, 9},
		{"pair", []int{1, 5}, 1, 5},
		// Old floor form gave P95 = 4 here (index int(0.95*3) = 2).
		{"four", []int{7, 0, 4, 0}, 0, 7},
		{"five", []int{10, 20, 30, 40, 50}, 30, 50},
		// 20 samples: P95 is the 19th order statistic (ceil(19)-1 = 18),
		// where the floor form picked index int(0.95*19) = 18 too — the
		// two agree on larger samples.
		{"twenty", func() []int {
			xs := make([]int, 20)
			for i := range xs {
				xs[i] = i + 1
			}
			return xs
		}(), 10, 19},
	}
	for _, c := range cases {
		sd := distribution(append([]int(nil), c.in...))
		if sd.P50 != c.p50 {
			t.Errorf("%s: P50 = %d, want %d", c.name, sd.P50, c.p50)
		}
		if sd.P95 != c.p95 {
			t.Errorf("%s: P95 = %d, want %d", c.name, sd.P95, c.p95)
		}
	}
}

func TestShiftDistributionEmptyTrace(t *testing.T) {
	d := device(t, 1, 8, 1)
	s, err := NewSingleTape(d, layout.Identity(8), HeadStay)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace.New("empty", 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.ShiftDist != (ShiftDistribution{}) {
		t.Errorf("empty distribution = %+v", res.ShiftDist)
	}
}

func TestDataIntegrityThroughPlacement(t *testing.T) {
	// Writes land in distinct slots: last write per item must be readable.
	d := device(t, 2, 8, 2)
	mp := layout.NewMultiPlacement(10)
	rng := rand.New(rand.NewSource(99))
	locs := rng.Perm(16)[:10]
	for i, loc := range locs {
		mp.Tape[i] = loc / 8
		mp.Slot[i] = loc % 8
	}
	s, err := New(d, mp, HeadStay)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("w", 10)
	for i := 0; i < 10; i++ {
		tr.Write(i)
	}
	if _, err := s.Run(tr); err != nil {
		t.Fatal(err)
	}
	// Access i wrote value i+1.
	for i := 0; i < 10; i++ {
		addr, err := s.Address(i)
		if err != nil {
			t.Fatal(err)
		}
		v, _, err := d.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(i)+1 {
			t.Errorf("item %d holds %d, want %d", i, v, i+1)
		}
	}
}
