// Package adaptive implements online (runtime) data reorganization for
// domain wall memories, the natural extension of the paper's static
// placement: when the access distribution drifts at runtime, the
// controller migrates items toward the port between accesses.
//
// Migrations are not free — each one is performed through the real device
// model, paying the shifts, reads, and writes it actually requires — so
// the experiments can answer the honest question: does online
// reorganization recover more shifts than its own overhead costs?
//
// Two policies are provided besides the static no-op:
//
//   - Transpose: after serving an access, swap the item one slot closer
//     to the port (the tape analog of the transposition rule for
//     self-organizing lists). Cheap, incremental, and drift-tracking.
//   - Epoch: count accesses and, every epoch, physically rebuild the
//     organ-pipe layout for the observed counts (a batch reorganizer).
//
// The package operates on single-tape devices, matching the single-tape
// scope of the static pipeline it extends.
package adaptive

import (
	"fmt"

	"repro/internal/dwm"
	"repro/internal/layout"
	"repro/internal/trace"
)

// Result aggregates an adaptive simulation run.
type Result struct {
	// Counters is the total device accounting, including migrations.
	Counters dwm.Counters
	// AccessShifts is the part of Counters.Shifts spent serving the
	// trace itself.
	AccessShifts int64
	// MigrationShifts is the part spent on reorganization.
	MigrationShifts int64
	// Migrations is the number of item moves performed.
	Migrations int64
	// LatencyNS and EnergyPJ are derived from Counters.
	LatencyNS float64
	EnergyPJ  float64
}

// Policy is an online reorganization rule.
type Policy interface {
	// Name identifies the policy in tables.
	Name() string
	// AfterAccess runs after each served access and may migrate items
	// through the mover.
	AfterAccess(m *Mover, item int) error
}

// Simulator executes traces on a single-tape device while a Policy
// reorganizes the layout online.
type Simulator struct {
	dev    *dwm.Device
	tape   *dwm.Tape
	port   int
	pos    layout.Placement // item -> slot, mutated by migrations
	itemAt []int            // slot -> item, -1 if free
	pol    Policy

	accessShifts    int64
	migrationShifts int64
	migrations      int64
}

// NewSimulator builds an adaptive simulator. The device must have exactly
// one tape and one port; the placement must be valid for the tape.
func NewSimulator(dev *dwm.Device, p layout.Placement, pol Policy) (*Simulator, error) {
	g := dev.Geometry()
	if g.Tapes != 1 {
		return nil, fmt.Errorf("adaptive: device has %d tapes, want 1", g.Tapes)
	}
	if g.PortsPerTape != 1 {
		return nil, fmt.Errorf("adaptive: device has %d ports, want 1", g.PortsPerTape)
	}
	if err := p.Validate(g.DomainsPerTape); err != nil {
		return nil, fmt.Errorf("adaptive: %w", err)
	}
	tape, err := dev.Tape(0)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		dev:    dev,
		tape:   tape,
		port:   g.PortPositions()[0],
		pos:    p.Clone(),
		itemAt: make([]int, g.DomainsPerTape),
		pol:    pol,
	}
	for i := range s.itemAt {
		s.itemAt[i] = -1
	}
	for item, slot := range s.pos {
		s.itemAt[slot] = item
	}
	return s, nil
}

// Run serves the trace, letting the policy reorganize after every access,
// and returns the accounting for this run.
func (s *Simulator) Run(t *trace.Trace) (Result, error) {
	if err := t.Validate(); err != nil {
		return Result{}, fmt.Errorf("adaptive: %w", err)
	}
	if t.NumItems > len(s.pos) {
		return Result{}, fmt.Errorf("adaptive: trace has %d items, placement covers %d",
			t.NumItems, len(s.pos))
	}
	before := s.dev.Counters()
	s.accessShifts, s.migrationShifts, s.migrations = 0, 0, 0
	m := &Mover{sim: s}
	for i, a := range t.Accesses {
		slot := s.pos[a.Item]
		var shifts int
		var err error
		if a.Write {
			shifts, err = s.tape.Write(slot, uint64(i)+1)
		} else {
			_, shifts, err = s.tape.Read(slot)
		}
		if err != nil {
			return Result{}, err
		}
		s.accessShifts += int64(shifts)
		if s.pol != nil {
			if err := s.pol.AfterAccess(m, a.Item); err != nil {
				return Result{}, err
			}
		}
	}
	after := s.dev.Counters()
	res := Result{
		Counters: dwm.Counters{
			Shifts: after.Shifts - before.Shifts,
			Reads:  after.Reads - before.Reads,
			Writes: after.Writes - before.Writes,
		},
		AccessShifts:    s.accessShifts,
		MigrationShifts: s.migrationShifts,
		Migrations:      s.migrations,
	}
	p := s.dev.Params()
	res.LatencyNS = res.Counters.LatencyNS(p)
	res.EnergyPJ = res.Counters.EnergyPJ(p)
	return res, nil
}

// Mover is the migration interface handed to policies. Every operation is
// charged through the device model.
type Mover struct {
	sim *Simulator
}

// Port returns the tape's port slot.
func (m *Mover) Port() int { return m.sim.port }

// SlotOf returns the current slot of an item.
func (m *Mover) SlotOf(item int) int { return m.sim.pos[item] }

// Items returns the number of placed items.
func (m *Mover) Items() int { return len(m.sim.pos) }

// TapeLen returns the number of slots on the tape.
func (m *Mover) TapeLen() int { return len(m.sim.itemAt) }

// Swap exchanges the contents of two slots, paying the real device cost
// (reading both words and writing them back exchanged). Empty slots are
// allowed; swapping a slot with itself is a no-op.
func (m *Mover) Swap(slotA, slotB int) error {
	if slotA == slotB {
		return nil
	}
	s := m.sim
	migBefore := s.tape.Shifts()
	va, sh, err := s.tape.Read(slotA)
	if err != nil {
		return err
	}
	_ = sh
	vb, _, err := s.tape.Read(slotB)
	if err != nil {
		return err
	}
	if _, err := s.tape.Write(slotA, vb); err != nil {
		return err
	}
	if _, err := s.tape.Write(slotB, va); err != nil {
		return err
	}
	s.migrationShifts += s.tape.Shifts() - migBefore
	s.migrations++

	ia, ib := s.itemAt[slotA], s.itemAt[slotB]
	s.itemAt[slotA], s.itemAt[slotB] = ib, ia
	if ia >= 0 {
		s.pos[ia] = slotB
	}
	if ib >= 0 {
		s.pos[ib] = slotA
	}
	return nil
}
