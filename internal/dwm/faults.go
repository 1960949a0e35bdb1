package dwm

import (
	"fmt"
	"math/rand"

	"repro/internal/stats"
)

// Shift fault model. Racetrack shifting is analog: a current pulse can
// under- or over-shoot, leaving the tape one position off. The model
// applies an independent error probability per single-position shift;
// each error displaces the final alignment by ±1. The controller senses
// misalignment after the burst (position error detection) and issues
// corrective shifts — which can themselves fault — until the tape is
// aligned. Corrective shifts are charged to the normal shift counter, so
// latency and energy accounting automatically include the overhead; the
// fault counter records how many individual shift errors occurred.

// FaultMode selects how the per-shift error probability is distributed
// along the wire.
type FaultMode int

const (
	// FaultUniform applies the same error probability to every shift —
	// the original model. Its RNG draw sequence is frozen: results for
	// uniform-mode experiments are stable across the pinning extension.
	FaultUniform FaultMode = iota
	// FaultPinning makes the probability position-dependent: domain
	// walls pin preferentially at fabrication defects (edge roughness,
	// notches), so each wire position carries a fixed pinning weight in
	// [0.25, 1.75] drawn deterministically from the seed, scaling the
	// base probability. The weights average 1, so the mean error rate
	// matches the uniform model at equal Prob — what changes is the
	// distribution: accesses whose shift path crosses a strongly pinned
	// region fault repeatedly, including during correction bursts over
	// the same region.
	FaultPinning
)

// FaultModel configures per-shift position errors.
type FaultModel struct {
	// Prob is the per-shift error probability (0 disables faults). In
	// pinning mode it is the mean over positions.
	Prob float64
	// Seed drives the error process (and, in pinning mode, the defect
	// map).
	Seed int64
	// Mode selects uniform or position-dependent (pinning) errors.
	Mode FaultMode
}

// Validate checks the probability range and mode.
func (f FaultModel) Validate() error {
	if f.Prob < 0 || f.Prob >= 1 {
		return fmt.Errorf("dwm: fault probability %g outside [0,1)", f.Prob)
	}
	if f.Mode != FaultUniform && f.Mode != FaultPinning {
		return fmt.Errorf("dwm: unknown fault mode %d", f.Mode)
	}
	return nil
}

// EnableFaults activates the fault model on the tape. Passing a zero
// model disables injection.
func (t *Tape) EnableFaults(f FaultModel) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if f.Prob == 0 {
		t.faultProb = 0
		t.faultRng = nil
		t.pinning = false
		return nil
	}
	t.faultProb = f.Prob
	t.faultRng = rand.New(rand.NewSource(f.Seed))
	t.pinning = f.Mode == FaultPinning
	// The defect map is a fixed property of the (simulated) wire: a
	// distinct splitmix lane of the same seed, so the map and the error
	// draws are decorrelated streams of one reproducible process.
	t.pinSeed = stats.Mix64(uint64(f.Seed) ^ 0x8CB92BA72F3D8DD7)
	return nil
}

// Faults returns the number of individual shift errors injected since
// construction.
func (t *Tape) Faults() int64 { return t.faults }

// faultDisplacement perturbs a burst that moved the offset from 'from'
// to 'to' and returns the net displacement. It dispatches on the mode;
// the uniform path draws exactly as it always has (one Float64 per
// step, Intn(2) per fault), keeping uniform-mode results frozen.
func (t *Tape) faultDisplacement(from, to int) int {
	if t.pinning {
		return t.applyFaultsPinned(from, to)
	}
	return t.applyFaults(abs(to - from))
}

// applyFaults perturbs the offset after a burst of d shifts and returns
// the displacement. Called only when the uniform fault model is active.
func (t *Tape) applyFaults(d int) int {
	disp := 0
	for i := 0; i < d; i++ {
		if t.faultRng.Float64() < t.faultProb {
			t.faults++
			if t.faultRng.Intn(2) == 0 {
				disp--
			} else {
				disp++
			}
		}
	}
	return disp
}

// applyFaultsPinned walks the burst step by step: the step that moves
// the offset onto position pos faults with probability Prob multiplied
// by pinWeight(pos), the wire's fixed defect map. A correction burst
// re-crosses the same positions, so a strongly pinned region is sticky
// — exactly the clustering the uniform model cannot express.
func (t *Tape) applyFaultsPinned(from, to int) int {
	if from == to {
		return 0
	}
	step := 1
	if to < from {
		step = -1
	}
	disp := 0
	for pos := from + step; ; pos += step {
		p := t.faultProb * t.pinWeight(pos)
		if p > 0.999 {
			// Validate bounds Prob below 1; the weight (≤ 1.75) could push
			// the product over. Cap it so sense-and-correct still
			// terminates with probability 1.
			p = 0.999
		}
		if t.faultRng.Float64() < p {
			t.faults++
			if t.faultRng.Intn(2) == 0 {
				disp--
			} else {
				disp++
			}
		}
		if pos == to {
			break
		}
	}
	return disp
}

// pinWeight returns position pos's pinning factor in [0.25, 1.75],
// mean 1: a deterministic hash of (defect-map seed, position). Offsets
// can be negative; the int64 widening keeps the hash well-defined.
func (t *Tape) pinWeight(pos int) float64 {
	z := stats.Mix64(t.pinSeed + uint64(int64(pos))*0xD1B54A32D192ED03)
	frac := float64(z>>11) / (1 << 53)
	return 0.25 + 1.5*frac
}

// deriveTapeSeed maps (seed, tape index) to an independent per-tape RNG
// seed with a splitmix64 finalizer — the same derivation scheme the
// bench harness (bench.DeriveSeed) and the annealer's restart chains
// use. Each tape's error process is a pure function of (seed, index):
// statistically independent streams, stable across runs, and
// independent of the order tapes are accessed in.
func deriveTapeSeed(seed int64, i int) int64 {
	return int64(stats.Mix64(uint64(seed) + uint64(i)*0x9E3779B97F4A7C15))
}

// EnableFaults activates the fault model on every tape of the device,
// deriving per-tape seeds (splitmix64 over (Seed, tape index)) so tapes
// fault independently: sharing one seed across tapes would correlate
// their error processes, and a plain additive offset leaves nearby
// streams correlated through the LCG's low bits. Multi-tape fault runs
// are therefore deterministic and tape-order-independent.
func (d *Device) EnableFaults(f FaultModel) error {
	if err := f.Validate(); err != nil {
		return err
	}
	for i, t := range d.tapes {
		tf := f
		if tf.Prob > 0 {
			tf.Seed = deriveTapeSeed(f.Seed, i)
		}
		if err := t.EnableFaults(tf); err != nil {
			return err
		}
	}
	return nil
}

// Faults returns the total injected shift errors across all tapes.
func (d *Device) Faults() int64 {
	var total int64
	for _, t := range d.tapes {
		total += t.Faults()
	}
	return total
}
