package dwm

import "fmt"

// Address identifies a word slot in a device: which tape and which slot on
// that tape.
type Address struct {
	Tape int
	Slot int
}

// Counters aggregates the operation counts of a device or a single tape.
type Counters struct {
	Shifts int64
	Reads  int64
	Writes int64
}

// Add returns the element-wise sum of two counter sets.
func (c Counters) Add(o Counters) Counters {
	return Counters{c.Shifts + o.Shifts, c.Reads + o.Reads, c.Writes + o.Writes}
}

// LatencyNS returns the total latency in nanoseconds the counted
// operations take under the given parameters.
func (c Counters) LatencyNS(p Params) float64 {
	return float64(c.Shifts)*p.ShiftLatencyNS +
		float64(c.Reads)*p.ReadLatencyNS +
		float64(c.Writes)*p.WriteLatencyNS
}

// EnergyPJ returns the total energy in picojoules the counted operations
// consume under the given parameters. Shift energy scales with the
// interleaving fanout (parallel nanowires all drive a shift current);
// latency does not.
func (c Counters) EnergyPJ(p Params) float64 {
	return float64(c.Shifts)*p.ShiftEnergyPJ*p.shiftFanout() +
		float64(c.Reads)*p.ReadEnergyPJ +
		float64(c.Writes)*p.WriteEnergyPJ
}

// Device is an array of tapes sharing one geometry and one set of device
// parameters. Each tape keeps its own independent mechanical offset, so an
// access pattern alternating between tapes pays no shifts for the
// alternation itself.
type Device struct {
	geom   Geometry
	params Params
	tapes  []*Tape
}

// NewDevice builds a device from a validated geometry and parameter set.
func NewDevice(g Geometry, p Params) (*Device, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ports := g.PortPositions()
	d := &Device{geom: g, params: p, tapes: make([]*Tape, g.Tapes)}
	for i := range d.tapes {
		t, err := NewTape(g.DomainsPerTape, ports)
		if err != nil {
			return nil, err
		}
		d.tapes[i] = t
	}
	return d, nil
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geom }

// Params returns the device timing/energy parameters.
func (d *Device) Params() Params { return d.params }

// Tape returns the i-th tape for inspection. The returned tape is live:
// operations on it are reflected in device counters.
func (d *Device) Tape(i int) (*Tape, error) {
	if i < 0 || i >= len(d.tapes) {
		return nil, fmt.Errorf("dwm: tape %d outside [0,%d)", i, len(d.tapes))
	}
	return d.tapes[i], nil
}

// check validates an address against the geometry.
func (d *Device) check(a Address) error {
	if a.Tape < 0 || a.Tape >= d.geom.Tapes {
		return fmt.Errorf("dwm: address tape %d outside [0,%d)", a.Tape, d.geom.Tapes)
	}
	if a.Slot < 0 || a.Slot >= d.geom.DomainsPerTape {
		return fmt.Errorf("dwm: address slot %d outside [0,%d)", a.Slot, d.geom.DomainsPerTape)
	}
	return nil
}

// Read reads the word at a, shifting the addressed tape as needed, and
// returns the value together with the shifts performed.
func (d *Device) Read(a Address) (val uint64, shifts int, err error) {
	if err := d.check(a); err != nil {
		return 0, 0, err
	}
	return d.tapes[a.Tape].Read(a.Slot)
}

// Write writes val at a, shifting the addressed tape as needed, and
// returns the shifts performed.
func (d *Device) Write(a Address, val uint64) (shifts int, err error) {
	if err := d.check(a); err != nil {
		return 0, err
	}
	return d.tapes[a.Tape].Write(a.Slot, val)
}

// Counters returns the summed operation counters across all tapes.
func (d *Device) Counters() Counters {
	var c Counters
	for _, t := range d.tapes {
		c.Shifts += t.Shifts()
		c.Reads += t.Reads()
		c.Writes += t.Writes()
	}
	return c
}

// TapeCounters returns the per-tape operation counters.
func (d *Device) TapeCounters() []Counters {
	cs := make([]Counters, len(d.tapes))
	for i, t := range d.tapes {
		cs[i] = Counters{t.Shifts(), t.Reads(), t.Writes()}
	}
	return cs
}

// ResetPositions shifts every tape back to offset zero, charging the
// shifts needed, and returns the total shifts performed.
func (d *Device) ResetPositions() int {
	total := 0
	for _, t := range d.tapes {
		total += t.ResetPosition()
	}
	return total
}
