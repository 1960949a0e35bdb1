package dwm

import (
	"fmt"
	"math/rand"
)

// Tape is a single racetrack nanowire holding one data word per domain
// block, with a set of fixed access ports.
//
// Mechanical model: the tape's shift state is captured by an integer
// offset. The word in slot s is aligned under the port at physical
// position q exactly when s == q + offset. Accessing slot s through port q
// therefore requires |(s - q) - offset| single-position shifts, after
// which the offset becomes s - q. The tape picks the port minimizing the
// shift count for each access.
//
// The offset ranges over [-(L-1), L-1] for an L-domain tape; real devices
// provide that travel with padding domains at both ends of the wire,
// L-1 on each side. The model does not charge for the padding.
type Tape struct {
	words  []uint64
	ports  []int
	offset int

	shifts int64
	reads  int64
	writes int64

	// Shift fault injection (see faults.go); faultRng nil = disabled.
	faultProb float64
	faultRng  *rand.Rand
	faults    int64
	// Pinning mode: position-dependent error probability drawn from the
	// wire's fixed defect map (seeded by pinSeed).
	pinning bool
	pinSeed uint64
}

// NewTape builds a tape with the given number of word slots and the given
// port positions. Port positions must be distinct, sorted ascending, and
// within [0, slots).
func NewTape(slots int, ports []int) (*Tape, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("dwm: tape needs at least one slot, got %d", slots)
	}
	if len(ports) == 0 {
		return nil, fmt.Errorf("dwm: tape needs at least one port")
	}
	for i, p := range ports {
		if p < 0 || p >= slots {
			return nil, fmt.Errorf("dwm: port %d at %d is outside [0,%d)", i, p, slots)
		}
		if i > 0 && ports[i-1] >= p {
			return nil, fmt.Errorf("dwm: port positions must be strictly ascending, got %v", ports)
		}
	}
	t := &Tape{
		words: make([]uint64, slots),
		ports: append([]int(nil), ports...),
	}
	return t, nil
}

// Len returns the number of word slots on the tape.
func (t *Tape) Len() int { return len(t.words) }

// Offset returns the tape's current shift offset.
func (t *Tape) Offset() int { return t.offset }

// Shifts, Reads and Writes return the operation counters accumulated since
// construction.
func (t *Tape) Shifts() int64 { return t.shifts }

// Reads returns the number of word reads performed.
func (t *Tape) Reads() int64 { return t.reads }

// Writes returns the number of word writes performed.
func (t *Tape) Writes() int64 { return t.writes }

// ResetPosition shifts the tape back to offset zero, charging the shifts
// needed to get there, and returns the number of shifts performed.
func (t *Tape) ResetPosition() int {
	n := abs(t.offset)
	t.shifts += int64(n)
	t.offset = 0
	return n
}

// nearestPort returns the port index minimizing the shift distance to
// align slot, along with that distance.
func (t *Tape) nearestPort(slot int) (port, dist int, err error) {
	if slot < 0 || slot >= len(t.words) {
		return 0, 0, fmt.Errorf("dwm: slot %d outside [0,%d)", slot, len(t.words))
	}
	best, bestD := -1, 0
	for i, q := range t.ports {
		d := abs(slot - q - t.offset)
		if best == -1 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD, nil
}

// align shifts the tape so slot is under its nearest port and returns the
// number of shifts performed, including any corrective shifts required by
// injected position errors.
func (t *Tape) align(slot int) (int, error) {
	port, d, err := t.nearestPort(slot)
	if err != nil {
		return 0, err
	}
	target := slot - t.ports[port]
	total := d
	t.shifts += int64(d)
	prev := t.offset
	t.offset = target
	if t.faultRng != nil {
		// The burst may land off target; sense and correct, with the
		// corrective shifts themselves subject to faults. The loop
		// terminates with probability 1 (effective prob < 1); the
		// iteration cap turns a pathological RNG stream into an error
		// instead of a hang. The burst's start offset is threaded
		// through so the pinning model knows which wire positions the
		// walls crossed; the uniform model only uses the distance.
		t.offset = target + t.faultDisplacement(prev, target)
		for iter := 0; t.offset != target; iter++ {
			if iter > 10000 {
				return 0, fmt.Errorf("dwm: position correction did not converge")
			}
			c := abs(target - t.offset)
			t.shifts += int64(c)
			total += c
			prev = t.offset
			t.offset = target + t.faultDisplacement(prev, target)
		}
	}
	return total, nil
}

// Read aligns slot under its nearest port and reads the word stored
// there. It returns the value and the number of shifts performed.
func (t *Tape) Read(slot int) (val uint64, shifts int, err error) {
	shifts, err = t.align(slot)
	if err != nil {
		return 0, 0, err
	}
	t.reads++
	return t.words[slot], shifts, nil
}

// Write aligns slot under its nearest port and writes val there. It
// returns the number of shifts performed.
func (t *Tape) Write(slot int, val uint64) (shifts int, err error) {
	shifts, err = t.align(slot)
	if err != nil {
		return 0, err
	}
	t.writes++
	t.words[slot] = val
	return shifts, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
