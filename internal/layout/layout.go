// Package layout defines the placement types shared by the cost
// evaluators, the placement algorithms, and the simulator.
//
// A Placement maps items to slots on a single tape; a MultiPlacement maps
// items to (tape, slot) pairs on a multi-tape device. Both are plain
// slices so optimizers can mutate them in place, with Validate methods
// enforcing the injectivity invariants at package boundaries.
package layout

import "fmt"

// Placement maps item ID to tape slot: Placement[item] = slot. A valid
// placement over `slots` tape positions is injective into [0, slots).
type Placement []int

// Identity returns the placement that puts item i in slot i.
func Identity(n int) Placement {
	p := make(Placement, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// FromOrder builds a placement from a slot ordering: order[s] is the item
// stored in slot s. Every item must appear exactly once.
func FromOrder(order []int) (Placement, error) {
	p := make(Placement, len(order))
	for i := range p {
		p[i] = -1
	}
	for s, item := range order {
		if item < 0 || item >= len(order) {
			return nil, fmt.Errorf("layout: order slot %d holds item %d outside [0,%d)",
				s, item, len(order))
		}
		if p[item] != -1 {
			return nil, fmt.Errorf("layout: item %d appears twice in order", item)
		}
		p[item] = s
	}
	return p, nil
}

// Order returns the inverse view over exactly len(p) slots: result[s] is
// the item in slot s. It requires the placement to be a permutation of
// [0, len(p)); use Validate for sparse placements on longer tapes.
func (p Placement) Order() ([]int, error) {
	if err := p.Validate(len(p)); err != nil {
		return nil, err
	}
	order := make([]int, len(p))
	for item, s := range p {
		order[s] = item
	}
	return order, nil
}

// Validate checks that the placement maps every item to a distinct slot in
// [0, slots).
func (p Placement) Validate(slots int) error {
	if len(p) == 0 {
		return fmt.Errorf("layout: empty placement")
	}
	if slots < len(p) {
		return fmt.Errorf("layout: %d items cannot fit in %d slots", len(p), slots)
	}
	seen := make(map[int]int, len(p))
	for item, s := range p {
		if s < 0 || s >= slots {
			return fmt.Errorf("layout: item %d placed at slot %d outside [0,%d)", item, s, slots)
		}
		if prev, dup := seen[s]; dup {
			return fmt.Errorf("layout: items %d and %d share slot %d", prev, item, s)
		}
		seen[s] = item
	}
	return nil
}

// Clone returns a copy of the placement.
func (p Placement) Clone() Placement {
	return append(Placement(nil), p...)
}

// Swap exchanges the slots of items u and v.
func (p Placement) Swap(u, v int) { p[u], p[v] = p[v], p[u] }

// MultiPlacement maps each item to a tape and a slot on that tape.
type MultiPlacement struct {
	Tape []int
	Slot []int
}

// NewMultiPlacement returns a multi-placement for n items with all
// entries set to -1 (unassigned).
func NewMultiPlacement(n int) MultiPlacement {
	mp := MultiPlacement{Tape: make([]int, n), Slot: make([]int, n)}
	for i := 0; i < n; i++ {
		mp.Tape[i] = -1
		mp.Slot[i] = -1
	}
	return mp
}

// Items returns the number of items covered.
func (mp MultiPlacement) Items() int { return len(mp.Tape) }

// Validate checks the multi-placement against a device shape: every item
// assigned a valid tape and slot, no two items sharing a (tape, slot).
func (mp MultiPlacement) Validate(tapes, slotsPerTape int) error {
	if len(mp.Tape) == 0 || len(mp.Tape) != len(mp.Slot) {
		return fmt.Errorf("layout: malformed multi-placement (%d tapes entries, %d slot entries)",
			len(mp.Tape), len(mp.Slot))
	}
	if len(mp.Tape) > tapes*slotsPerTape {
		return fmt.Errorf("layout: %d items cannot fit on %d tapes of %d slots",
			len(mp.Tape), tapes, slotsPerTape)
	}
	type loc struct{ t, s int }
	seen := make(map[loc]int, len(mp.Tape))
	for item := range mp.Tape {
		t, s := mp.Tape[item], mp.Slot[item]
		if t < 0 || t >= tapes {
			return fmt.Errorf("layout: item %d on tape %d outside [0,%d)", item, t, tapes)
		}
		if s < 0 || s >= slotsPerTape {
			return fmt.Errorf("layout: item %d at slot %d outside [0,%d)", item, s, slotsPerTape)
		}
		if prev, dup := seen[loc{t, s}]; dup {
			return fmt.Errorf("layout: items %d and %d share tape %d slot %d", prev, item, t, s)
		}
		seen[loc{t, s}] = item
	}
	return nil
}

// Clone returns a deep copy.
func (mp MultiPlacement) Clone() MultiPlacement {
	return MultiPlacement{
		Tape: append([]int(nil), mp.Tape...),
		Slot: append([]int(nil), mp.Slot...),
	}
}

// SingleTape lifts a single-tape placement into a multi-placement on
// tape 0.
func SingleTape(p Placement) MultiPlacement {
	mp := MultiPlacement{Tape: make([]int, len(p)), Slot: append([]int(nil), p...)}
	return mp
}
