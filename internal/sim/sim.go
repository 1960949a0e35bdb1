// Package sim executes access traces against the dwm device model under a
// placement and reports the resulting shift, latency, and energy totals.
//
// The simulator is the ground truth of the evaluation: the analytic
// evaluators in internal/cost predict shift counts, and the property tests
// assert that simulation and prediction agree exactly. Latency and energy
// are derived from the device counters using the device's Params, which is
// faithful to how DWM architecture studies report those metrics (shifts
// dominate; reads and writes contribute fixed per-access terms).
package sim

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/dwm"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Simulator instrumentation (see internal/obs): runs, accesses served,
// and shifts issued, accumulated process-wide across all simulators.
// The shift-distance histogram records every access's shift count —
// the distribution (not the total) is how the placement papers diagnose
// quality, and its tail is what bounds worst-case access latency.
var (
	obsRuns      = obs.GetCounter("sim.runs")
	obsAccesses  = obs.GetCounter("sim.accesses")
	obsShifts    = obs.GetCounter("sim.shifts")
	obsShiftDist = obs.GetHistogram("sim.shift_distance",
		[]float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512})
)

// HeadPolicy selects what the simulator does with tape heads between
// simulated iterations of Run (ablation E9 compares the options).
type HeadPolicy int

const (
	// HeadStay leaves every head where the last access parked it (the
	// default, matching the analytic cost model).
	HeadStay HeadPolicy = iota
	// HeadReturn shifts every tape back to offset zero after each run,
	// charging those shifts, modeling controllers that re-home tapes.
	HeadReturn
)

// Result aggregates one simulation run.
type Result struct {
	// Shifts, Reads, Writes are the device operation counts.
	Counters dwm.Counters
	// LatencyNS and EnergyPJ are derived from Counters with the device
	// parameters.
	LatencyNS float64
	EnergyPJ  float64
	// Accesses is the number of trace events served.
	Accesses int
	// PerTape breaks the counters down by tape.
	PerTape []dwm.Counters
	// ShiftDist summarizes the per-access shift distance distribution:
	// placement determines not just the total but the tail, and the tail
	// is what bounds worst-case access latency.
	ShiftDist ShiftDistribution
}

// ShiftDistribution summarizes per-access shift distances.
type ShiftDistribution struct {
	Mean float64
	P50  int
	P95  int
	Max  int
}

// distribution computes the summary from the raw per-access counts. The
// input slice is sorted in place — callers that reuse a scratch buffer
// (Run does) must not rely on its order afterwards.
func distribution(perAccess []int) ShiftDistribution {
	if len(perAccess) == 0 {
		return ShiftDistribution{}
	}
	sort.Ints(perAccess)
	var sum int64
	for _, v := range perAccess {
		sum += int64(v)
	}
	// Nearest-rank percentile: the smallest element with at least a q
	// fraction of the sample at or below it, i.e. index ceil(q·n)-1. The
	// earlier floor form int(q·(n-1)) biased P50/P95 low on small
	// samples (e.g. P95 of 4 samples picked index 2, not the 3rd of 4).
	at := func(q float64) int {
		i := int(math.Ceil(q*float64(len(perAccess)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(perAccess) {
			i = len(perAccess) - 1
		}
		return perAccess[i]
	}
	return ShiftDistribution{
		Mean: float64(sum) / float64(len(perAccess)),
		P50:  at(0.50),
		P95:  at(0.95),
		Max:  perAccess[len(perAccess)-1],
	}
}

// Simulator binds a device to a multi-placement.
//
// A Simulator is not safe for concurrent use: it owns mutable device
// state and reuses an internal scratch buffer across Run calls.
type Simulator struct {
	dev *dwm.Device
	mp  layout.MultiPlacement
	pol HeadPolicy
	// scratch is the per-access shift buffer reused by Run; distribution
	// sorts it in place, which is fine because each Run truncates and
	// refills it before reading.
	scratch []int
	// dist buffers this simulator's shift-distance observations and is
	// flushed into the process-wide histogram once per Run.
	dist *obs.LocalHistogram
}

// New builds a simulator. The placement must be valid for the device
// geometry.
func New(dev *dwm.Device, mp layout.MultiPlacement, pol HeadPolicy) (*Simulator, error) {
	g := dev.Geometry()
	if err := mp.Validate(g.Tapes, g.DomainsPerTape); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &Simulator{dev: dev, mp: mp.Clone(), pol: pol, dist: obsShiftDist.Local()}, nil
}

// NewSingleTape builds a simulator for a single-tape device from a plain
// placement.
func NewSingleTape(dev *dwm.Device, p layout.Placement, pol HeadPolicy) (*Simulator, error) {
	if dev.Geometry().Tapes != 1 {
		return nil, fmt.Errorf("sim: device has %d tapes, want 1", dev.Geometry().Tapes)
	}
	return New(dev, layout.SingleTape(p), pol)
}

// Address returns the device address of an item under the simulator's
// placement.
func (s *Simulator) Address(item int) (dwm.Address, error) {
	if item < 0 || item >= s.mp.Items() {
		return dwm.Address{}, fmt.Errorf("sim: item %d outside [0,%d)", item, s.mp.Items())
	}
	return dwm.Address{Tape: s.mp.Tape[item], Slot: s.mp.Slot[item]}, nil
}

// Run serves every access of the trace in order and returns the totals
// accumulated *by this call* (device counters are snapshotted around the
// run, so repeated runs return per-run results). Reads return whatever the
// device holds; writes store a value derived from the access index so
// that data integrity can be checked by tests.
func (s *Simulator) Run(t *trace.Trace) (Result, error) {
	_, span := obs.StartSpan(context.Background(), "sim.run")
	defer span.End()
	if err := t.Validate(); err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	if t.NumItems > s.mp.Items() {
		return Result{}, fmt.Errorf("sim: trace has %d items, placement covers %d",
			t.NumItems, s.mp.Items())
	}
	before := s.dev.Counters()
	beforeTapes := s.dev.TapeCounters()
	if cap(s.scratch) < t.Len() {
		s.scratch = make([]int, 0, t.Len())
	}
	perAccess := s.scratch[:0]
	for i, a := range t.Accesses {
		addr, err := s.Address(a.Item)
		if err != nil {
			return Result{}, err
		}
		var shifts int
		if a.Write {
			if shifts, err = s.dev.Write(addr, uint64(i)+1); err != nil {
				return Result{}, err
			}
		} else if _, shifts, err = s.dev.Read(addr); err != nil {
			return Result{}, err
		}
		perAccess = append(perAccess, shifts)
	}
	if s.pol == HeadReturn {
		s.dev.ResetPositions()
	}
	after := s.dev.Counters()
	afterTapes := s.dev.TapeCounters()

	res := Result{
		Counters: dwm.Counters{
			Shifts: after.Shifts - before.Shifts,
			Reads:  after.Reads - before.Reads,
			Writes: after.Writes - before.Writes,
		},
		Accesses: t.Len(),
		PerTape:  make([]dwm.Counters, len(afterTapes)),
	}
	for i := range afterTapes {
		res.PerTape[i] = dwm.Counters{
			Shifts: afterTapes[i].Shifts - beforeTapes[i].Shifts,
			Reads:  afterTapes[i].Reads - beforeTapes[i].Reads,
			Writes: afterTapes[i].Writes - beforeTapes[i].Writes,
		}
	}
	p := s.dev.Params()
	res.LatencyNS = res.Counters.LatencyNS(p)
	res.EnergyPJ = res.Counters.EnergyPJ(p)
	// Feed the process-wide distance histogram before distribution sorts
	// the scratch buffer, batching through the simulator's local buffer
	// so the per-run cost is one flush, not len(trace) shared atomic
	// adds.
	for _, d := range perAccess {
		s.dist.Observe(int64(d))
	}
	s.dist.Flush()
	res.ShiftDist = distribution(perAccess)
	s.scratch = perAccess
	obsRuns.Inc()
	obsAccesses.Add(int64(res.Accesses))
	obsShifts.Add(res.Counters.Shifts)
	span.SetAttr("trace", t.Name).
		SetAttr("accesses", res.Accesses).
		SetAttr("shifts", res.Counters.Shifts)
	return res, nil
}
