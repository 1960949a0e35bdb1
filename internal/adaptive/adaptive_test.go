package adaptive

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dwm"
	"repro/internal/layout"
	"repro/internal/trace"
	"repro/internal/workload"
)

func singleTapeDevice(t *testing.T, slots int) *dwm.Device {
	t.Helper()
	return mustDevice(slots)
}

// mustDevice builds a 1-tape, 1-port device; usable from quick.Check
// property functions that have no *testing.T.
func mustDevice(slots int) *dwm.Device {
	d, err := dwm.NewDevice(dwm.Geometry{Tapes: 1, DomainsPerTape: slots, PortsPerTape: 1},
		dwm.DefaultParams())
	if err != nil {
		panic(err)
	}
	return d
}

func TestNewSimulatorValidation(t *testing.T) {
	multi, err := dwm.NewDevice(dwm.Geometry{Tapes: 2, DomainsPerTape: 8, PortsPerTape: 1},
		dwm.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSimulator(multi, layout.Identity(4), Static{}); err == nil {
		t.Error("multi-tape device accepted")
	}
	twoPort, err := dwm.NewDevice(dwm.Geometry{Tapes: 1, DomainsPerTape: 8, PortsPerTape: 2},
		dwm.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSimulator(twoPort, layout.Identity(4), Static{}); err == nil {
		t.Error("multi-port device accepted")
	}
	if _, err := NewSimulator(singleTapeDevice(t, 4), layout.Placement{0, 0}, Static{}); err == nil {
		t.Error("invalid placement accepted")
	}
}

func TestStaticMatchesPlainSimulation(t *testing.T) {
	// With the Static policy the adaptive simulator must produce exactly
	// the shift counts of the plain device walk.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		tr := trace.New("p", n)
		for i := 0; i < 300; i++ {
			tr.Read(rng.Intn(n))
		}
		dev := mustDevice(n)
		p, err := layout.FromOrder(rng.Perm(n))
		if err != nil {
			return false
		}
		s, err := NewSimulator(dev, p, Static{})
		if err != nil {
			return false
		}
		res, err := s.Run(tr)
		if err != nil {
			return false
		}
		if res.Migrations != 0 || res.MigrationShifts != 0 {
			return false
		}
		// Compare with a fresh plain walk.
		dev2 := mustDevice(n)
		tape, err := dev2.Tape(0)
		if err != nil {
			return false
		}
		var want int64
		for _, a := range tr.Accesses {
			_, sh, err := tape.Read(p[a.Item])
			if err != nil {
				return false
			}
			want += int64(sh)
		}
		return res.Counters.Shifts == want && res.AccessShifts == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTransposePullsHotItemToPort(t *testing.T) {
	// One item accessed repeatedly must end up at the port slot.
	n := 16
	dev := singleTapeDevice(t, n)
	port := dev.Geometry().PortPositions()[0]
	p := layout.Identity(n)
	s, err := NewSimulator(dev, p, Transpose{})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("hot", n)
	hot := 0 // starts at slot 0, far from the center port
	for i := 0; i < 50; i++ {
		tr.Read(hot)
	}
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.pos[hot]; got != port {
		t.Errorf("hot item at slot %d, want port %d", got, port)
	}
	if res.Migrations == 0 || res.MigrationShifts == 0 {
		t.Errorf("no migration accounting: %+v", res)
	}
	if res.Counters.Shifts != res.AccessShifts+res.MigrationShifts {
		t.Errorf("shift split %d+%d != total %d",
			res.AccessShifts, res.MigrationShifts, res.Counters.Shifts)
	}
}

func TestTransposePlacementStaysPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		tr := trace.New("p", n)
		for i := 0; i < 500; i++ {
			tr.Read(rng.Intn(n))
		}
		dev := mustDevice(n)
		s, err := NewSimulator(dev, layout.Identity(n), Transpose{})
		if err != nil {
			return false
		}
		if _, err := s.Run(tr); err != nil {
			return false
		}
		return s.pos.Validate(n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEpochRebuildsOrganPipe(t *testing.T) {
	n := 8
	dev := singleTapeDevice(t, n)
	port := dev.Geometry().PortPositions()[0]
	pol := &Epoch{Window: 100}
	s, err := NewSimulator(dev, layout.Identity(n), pol)
	if err != nil {
		t.Fatal(err)
	}
	// 100 accesses: item 7 hottest, then 6, others cold.
	tr := trace.New("skew", n)
	for i := 0; i < 60; i++ {
		tr.Read(7)
	}
	for i := 0; i < 30; i++ {
		tr.Read(6)
	}
	for i := 0; i < 10; i++ {
		tr.Read(i % 6)
	}
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	p := s.pos
	if p[7] != port {
		t.Errorf("hottest item at slot %d, want port %d", p[7], port)
	}
	if d := p[6] - port; d != 1 && d != -1 {
		t.Errorf("second-hottest at distance %d from port", d)
	}
	if err := p.Validate(n); err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Error("epoch rebuild performed no migrations")
	}
}

func TestEpochPlacementStaysPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		tr := trace.New("p", n)
		for i := 0; i < 700; i++ {
			tr.Read(rng.Intn(n))
		}
		dev := mustDevice(n)
		s, err := NewSimulator(dev, layout.Identity(n), &Epoch{Window: 128})
		if err != nil {
			return false
		}
		if _, err := s.Run(tr); err != nil {
			return false
		}
		return s.pos.Validate(n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAdaptiveBeatsStaticOnPhasedWorkload(t *testing.T) {
	// On a workload whose hot set rotates, transposition must beat the
	// static organ-pipe layout tuned for the aggregate distribution,
	// even after paying for its own migrations.
	tr := workload.Phased(64, 16384, 8, 1.3, 3)
	static, err := core.OrganPipe(tr)
	if err != nil {
		t.Fatal(err)
	}
	run := func(pol Policy) Result {
		dev := singleTapeDevice(t, tr.NumItems)
		s, err := NewSimulator(dev, static, pol)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	staticRes := run(Static{})
	transRes := run(Transpose{})
	if transRes.Counters.Shifts >= staticRes.Counters.Shifts {
		t.Errorf("transpose (%d shifts incl. %d migration) not better than static (%d)",
			transRes.Counters.Shifts, transRes.MigrationShifts, staticRes.Counters.Shifts)
	}
}

func TestMoverSwapSelfNoop(t *testing.T) {
	dev := singleTapeDevice(t, 8)
	s, err := NewSimulator(dev, layout.Identity(8), Static{})
	if err != nil {
		t.Fatal(err)
	}
	m := &Mover{sim: s}
	if err := m.Swap(3, 3); err != nil {
		t.Fatal(err)
	}
	if s.migrations != 0 {
		t.Error("self-swap counted as migration")
	}
}

func TestRunRejectsBadTrace(t *testing.T) {
	dev := singleTapeDevice(t, 8)
	s, err := NewSimulator(dev, layout.Identity(4), Static{})
	if err != nil {
		t.Fatal(err)
	}
	big := trace.New("big", 9)
	big.Read(8)
	if _, err := s.Run(big); err == nil {
		t.Error("oversized trace accepted")
	}
}
