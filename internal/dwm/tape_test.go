package dwm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustTape(t *testing.T, slots int, ports []int) *Tape {
	t.Helper()
	tape, err := NewTape(slots, ports)
	if err != nil {
		t.Fatalf("NewTape(%d, %v): %v", slots, ports, err)
	}
	return tape
}

func TestNewTapeValidation(t *testing.T) {
	cases := []struct {
		slots int
		ports []int
	}{
		{0, []int{0}},
		{-3, []int{0}},
		{8, nil},
		{8, []int{}},
		{8, []int{-1}},
		{8, []int{8}},
		{8, []int{3, 3}},
		{8, []int{5, 2}},
	}
	for i, c := range cases {
		if _, err := NewTape(c.slots, c.ports); err == nil {
			t.Errorf("case %d: NewTape(%d,%v) accepted", i, c.slots, c.ports)
		}
	}
}

func TestTapeSinglePortShiftCounts(t *testing.T) {
	// Port at 0; tape starts at offset 0.
	tape := mustTape(t, 8, []int{0})
	steps := []struct {
		slot       int
		wantShifts int
	}{
		{0, 0}, // already aligned
		{5, 5}, // 0 -> 5
		{2, 3}, // 5 -> 2
		{7, 5}, // 2 -> 7
		{7, 0}, // stay
	}
	var total int64
	for i, s := range steps {
		_, n, err := tape.Read(s.slot)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if n != s.wantShifts {
			t.Errorf("step %d: shifts = %d, want %d", i, n, s.wantShifts)
		}
		total += int64(s.wantShifts)
	}
	if tape.Shifts() != total {
		t.Errorf("Shifts() = %d, want %d", tape.Shifts(), total)
	}
	if tape.Reads() != int64(len(steps)) {
		t.Errorf("Reads() = %d, want %d", tape.Reads(), len(steps))
	}
}

func TestTapeTwoPortsPicksNearest(t *testing.T) {
	// Ports at 1 and 6 on an 8-slot tape, offset 0.
	tape := mustTape(t, 8, []int{1, 6})
	// Slot 7 is 1 from port 6, 6 from port 1.
	if _, n, err := tape.Read(7); err != nil || n != 1 {
		t.Fatalf("Read(7): shifts=%d err=%v, want 1", n, err)
	}
	// Offset is now 1. Slot 0: port1 dist |0-1-1|=2, port6 dist |0-6-1|=7.
	if _, n, err := tape.Read(0); err != nil || n != 2 {
		t.Fatalf("Read(0): shifts=%d err=%v, want 2", n, err)
	}
}

func TestTapeReadWriteRoundTrip(t *testing.T) {
	tape := mustTape(t, 16, []int{8})
	for slot := 0; slot < 16; slot++ {
		if _, err := tape.Write(slot, uint64(slot*7+1)); err != nil {
			t.Fatalf("Write(%d): %v", slot, err)
		}
	}
	for slot := 0; slot < 16; slot++ {
		v, _, err := tape.Read(slot)
		if err != nil {
			t.Fatalf("Read(%d): %v", slot, err)
		}
		if v != uint64(slot*7+1) {
			t.Errorf("Read(%d) = %d, want %d", slot, v, slot*7+1)
		}
	}
	if tape.Writes() != 16 || tape.Reads() != 16 {
		t.Errorf("counters reads=%d writes=%d, want 16/16", tape.Reads(), tape.Writes())
	}
}

func TestTapeOutOfRangeAccess(t *testing.T) {
	tape := mustTape(t, 8, []int{0})
	if _, _, err := tape.Read(-1); err == nil {
		t.Error("Read(-1) accepted")
	}
	if _, _, err := tape.Read(8); err == nil {
		t.Error("Read(8) accepted")
	}
	if _, err := tape.Write(9, 1); err == nil {
		t.Error("Write(9) accepted")
	}
	if _, _, err := tape.nearestPort(-2); err == nil {
		t.Error("nearestPort(-2) accepted")
	}
}

// Pricing an access (nearestPort, which Read and Write both use) reports
// the shift distance from the current offset without moving the tape.
func TestTapeShiftCostToDoesNotMove(t *testing.T) {
	tape := mustTape(t, 32, []int{0})
	if _, _, err := tape.Read(10); err != nil {
		t.Fatal(err)
	}
	before := tape.Offset()
	_, d, err := tape.nearestPort(3)
	if err != nil {
		t.Fatal(err)
	}
	if d != 7 {
		t.Errorf("nearestPort(3) distance = %d, want 7", d)
	}
	if tape.Offset() != before || tape.Shifts() != 10 {
		t.Errorf("pricing moved the tape: offset %d -> %d, shifts %d", before, tape.Offset(), tape.Shifts())
	}
}

func TestTapeResetPosition(t *testing.T) {
	tape := mustTape(t, 32, []int{0})
	if _, _, err := tape.Read(20); err != nil {
		t.Fatal(err)
	}
	n := tape.ResetPosition()
	if n != 20 {
		t.Errorf("ResetPosition = %d shifts, want 20", n)
	}
	if tape.Offset() != 0 {
		t.Errorf("offset after reset = %d, want 0", tape.Offset())
	}
	if tape.Shifts() != 40 {
		t.Errorf("Shifts = %d, want 40 (20 out + 20 back)", tape.Shifts())
	}
}

// ResetPosition, the one reset left, moves the tape and charges the
// shifts but keeps the contents and the other counters.
func TestTapeResetCountersKeepsState(t *testing.T) {
	tape := mustTape(t, 16, []int{0})
	if _, err := tape.Write(5, 99); err != nil {
		t.Fatal(err)
	}
	tape.ResetPosition()
	if tape.Shifts() != 10 || tape.Reads() != 0 || tape.Writes() != 1 {
		t.Errorf("counters after ResetPosition: shifts %d reads %d writes %d, want 10 0 1",
			tape.Shifts(), tape.Reads(), tape.Writes())
	}
	if tape.Offset() != 0 {
		t.Errorf("offset after ResetPosition: %d", tape.Offset())
	}
	if tape.words[5] != 99 {
		t.Errorf("contents changed by ResetPosition: %d", tape.words[5])
	}
}

func TestTapeAccessorCopies(t *testing.T) {
	ports := []int{2, 5}
	tape := mustTape(t, 8, ports)
	ports[0] = 7 // must not corrupt internal state
	if tape.ports[0] != 2 || tape.ports[1] != 5 {
		t.Errorf("NewTape retained the caller's port slice: %v", tape.ports)
	}
	if tape.Len() != 8 {
		t.Errorf("Len = %d, want 8", tape.Len())
	}
}

// Property: for a single port at position q starting from offset 0, the
// total shifts of an access sequence equals sum |slot[i] - slot[i-1]| plus
// |slot[0] - q| for the initial seek.
func TestTapeSinglePortShiftIdentity(t *testing.T) {
	f := func(seed int64, q8 uint8) bool {
		const slots = 64
		rng := rand.New(rand.NewSource(seed))
		q := int(q8) % slots
		tape, err := NewTape(slots, []int{q})
		if err != nil {
			return false
		}
		prev := q
		var want int64
		for i := 0; i < 200; i++ {
			s := rng.Intn(slots)
			want += int64(abs(s - prev))
			prev = s
			if _, _, err := tape.Read(s); err != nil {
				return false
			}
		}
		return tape.Shifts() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: with multiple ports, total shifts never exceed the single-port
// cost of the same sequence through any one of the ports.
func TestTapeMultiPortNeverWorse(t *testing.T) {
	f := func(seed int64) bool {
		const slots = 64
		rng := rand.New(rand.NewSource(seed))
		ports := SpreadPorts(slots, 4)
		multi, err := NewTape(slots, ports)
		if err != nil {
			return false
		}
		single, err := NewTape(slots, []int{ports[0]})
		if err != nil {
			return false
		}
		for i := 0; i < 300; i++ {
			s := rng.Intn(slots)
			if _, _, err := multi.Read(s); err != nil {
				return false
			}
			if _, _, err := single.Read(s); err != nil {
				return false
			}
		}
		return multi.Shifts() <= single.Shifts()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
