package dwm

import (
	"math/rand"
	"testing"
)

func mustDevice(t *testing.T, g Geometry) *Device {
	t.Helper()
	d, err := NewDevice(g, DefaultParams())
	if err != nil {
		t.Fatalf("NewDevice(%+v): %v", g, err)
	}
	return d
}

func TestNewDeviceRejectsBadGeometry(t *testing.T) {
	if _, err := NewDevice(Geometry{}, DefaultParams()); err == nil {
		t.Error("zero geometry accepted")
	}
	if _, err := NewDevice(Geometry{Tapes: 1, DomainsPerTape: 8, PortsPerTape: 1},
		Params{ShiftLatencyNS: -1}); err == nil {
		t.Error("bad params accepted")
	}
}

func TestDeviceAddressValidation(t *testing.T) {
	d := mustDevice(t, Geometry{Tapes: 2, DomainsPerTape: 8, PortsPerTape: 1})
	bad := []Address{
		{Tape: -1, Slot: 0},
		{Tape: 2, Slot: 0},
		{Tape: 0, Slot: -1},
		{Tape: 0, Slot: 8},
	}
	for i, a := range bad {
		if _, _, err := d.Read(a); err == nil {
			t.Errorf("case %d: Read(%+v) accepted", i, a)
		}
		if _, err := d.Write(a, 1); err == nil {
			t.Errorf("case %d: Write(%+v) accepted", i, a)
		}
	}
	if _, err := d.Tape(5); err == nil {
		t.Error("Tape(5) accepted")
	}
}

func TestDeviceIndependentTapeHeads(t *testing.T) {
	d := mustDevice(t, Geometry{Tapes: 2, DomainsPerTape: 16, PortsPerTape: 1})
	// Port is at slot 8 on each tape.
	// Access tape0 slot 0 (8 shifts), tape1 slot 15 (7 shifts), then
	// tape0 slot 0 again: must be free because tape0's head did not move.
	if _, n, err := d.Read(Address{0, 0}); err != nil || n != 8 {
		t.Fatalf("first read: shifts=%d err=%v", n, err)
	}
	if _, n, err := d.Read(Address{1, 15}); err != nil || n != 7 {
		t.Fatalf("second read: shifts=%d err=%v", n, err)
	}
	if _, n, err := d.Read(Address{0, 0}); err != nil || n != 0 {
		t.Fatalf("third read should be free: shifts=%d err=%v", n, err)
	}
	c := d.Counters()
	if c.Shifts != 15 || c.Reads != 3 || c.Writes != 0 {
		t.Errorf("counters = %+v, want shifts 15 reads 3", c)
	}
}

func TestDeviceWriteReadRoundTrip(t *testing.T) {
	g := Geometry{Tapes: 3, DomainsPerTape: 8, PortsPerTape: 2}
	d := mustDevice(t, g)
	rng := rand.New(rand.NewSource(7))
	want := map[Address]uint64{}
	for tape := 0; tape < g.Tapes; tape++ {
		for slot := 0; slot < g.DomainsPerTape; slot++ {
			a := Address{tape, slot}
			v := rng.Uint64()
			want[a] = v
			if _, err := d.Write(a, v); err != nil {
				t.Fatalf("Write(%+v): %v", a, err)
			}
		}
	}
	for a, v := range want {
		got, _, err := d.Read(a)
		if err != nil {
			t.Fatalf("Read(%+v): %v", a, err)
		}
		if got != v {
			t.Errorf("Read(%+v) = %d, want %d", a, got, v)
		}
	}
}

func TestDeviceTapeCountersSumToTotal(t *testing.T) {
	d := mustDevice(t, Geometry{Tapes: 4, DomainsPerTape: 32, PortsPerTape: 1})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		a := Address{rng.Intn(4), rng.Intn(32)}
		if rng.Intn(2) == 0 {
			if _, _, err := d.Read(a); err != nil {
				t.Fatal(err)
			}
		} else if _, err := d.Write(a, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var sum Counters
	for _, c := range d.TapeCounters() {
		sum = sum.Add(c)
	}
	if sum != d.Counters() {
		t.Errorf("per-tape sum %+v != device total %+v", sum, d.Counters())
	}
	if sum.Reads+sum.Writes != 500 {
		t.Errorf("reads+writes = %d, want 500", sum.Reads+sum.Writes)
	}
}

func TestDeviceResetPositionsAndCounters(t *testing.T) {
	d := mustDevice(t, Geometry{Tapes: 2, DomainsPerTape: 16, PortsPerTape: 1})
	if _, _, err := d.Read(Address{0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Read(Address{1, 15}); err != nil {
		t.Fatal(err)
	}
	n := d.ResetPositions()
	if n != 15 { // 8 back on tape0, 7 back on tape1
		t.Errorf("ResetPositions = %d, want 15", n)
	}
	// 8 + 7 shifts to serve the reads, 15 more to reset.
	if c := d.Counters(); c != (Counters{Shifts: 30, Reads: 2}) {
		t.Errorf("counters after reset = %+v, want 30 shifts, 2 reads", c)
	}
}

func TestCountersLatencyEnergy(t *testing.T) {
	p := Params{
		ShiftLatencyNS: 2, ReadLatencyNS: 3, WriteLatencyNS: 5,
		ShiftEnergyPJ: 7, ReadEnergyPJ: 11, WriteEnergyPJ: 13,
	}
	c := Counters{Shifts: 10, Reads: 4, Writes: 2}
	if got, want := c.LatencyNS(p), 10.0*2+4*3+2*5; got != want {
		t.Errorf("LatencyNS = %g, want %g", got, want)
	}
	if got, want := c.EnergyPJ(p), 10.0*7+4*11+2*13; got != want {
		t.Errorf("EnergyPJ = %g, want %g", got, want)
	}
}

func TestShiftFanoutScalesEnergyNotLatency(t *testing.T) {
	base := Params{
		ShiftLatencyNS: 2, ReadLatencyNS: 3, WriteLatencyNS: 5,
		ShiftEnergyPJ: 7, ReadEnergyPJ: 11, WriteEnergyPJ: 13,
	}
	wide := base
	wide.ShiftFanout = 32
	if err := wide.Validate(); err != nil {
		t.Fatal(err)
	}
	c := Counters{Shifts: 10, Reads: 4, Writes: 2}
	if c.LatencyNS(base) != c.LatencyNS(wide) {
		t.Errorf("fanout changed latency: %g vs %g", c.LatencyNS(base), c.LatencyNS(wide))
	}
	wantDelta := 10.0 * 7 * 31 // 31 extra wires per shift
	if got := c.EnergyPJ(wide) - c.EnergyPJ(base); got != wantDelta {
		t.Errorf("fanout energy delta = %g, want %g", got, wantDelta)
	}
	// Zero fanout behaves as 1.
	zero := base
	zero.ShiftFanout = 0
	if c.EnergyPJ(zero) != c.EnergyPJ(base) {
		t.Error("zero fanout differs from fanout 1")
	}
	neg := base
	neg.ShiftFanout = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative fanout accepted")
	}
}

func TestDeviceGeometryParamsAccessors(t *testing.T) {
	g := Geometry{Tapes: 2, DomainsPerTape: 16, PortsPerTape: 2}
	p := DefaultParams()
	d, err := NewDevice(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Geometry() != g {
		t.Errorf("Geometry() = %+v, want %+v", d.Geometry(), g)
	}
	if d.Params() != p {
		t.Errorf("Params() = %+v, want %+v", d.Params(), p)
	}
}
