package dwm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestFaultModelValidate(t *testing.T) {
	for _, p := range []float64{-0.1, 1.0, 2.0} {
		if err := (FaultModel{Prob: p}).Validate(); err == nil {
			t.Errorf("prob %g accepted", p)
		}
	}
	if err := (FaultModel{Prob: 0}).Validate(); err != nil {
		t.Errorf("zero prob rejected: %v", err)
	}
	if err := (FaultModel{Prob: 0.5}).Validate(); err != nil {
		t.Errorf("0.5 prob rejected: %v", err)
	}
}

func TestZeroProbMatchesFaultFree(t *testing.T) {
	a := mustTape(t, 32, []int{0})
	b := mustTape(t, 32, []int{0})
	if err := b.EnableFaults(FaultModel{Prob: 0, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		s := rng.Intn(32)
		if _, _, err := a.Read(s); err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.Read(s); err != nil {
			t.Fatal(err)
		}
	}
	if a.Shifts() != b.Shifts() || b.Faults() != 0 {
		t.Errorf("zero-prob faults changed behavior: %d vs %d shifts, %d faults",
			a.Shifts(), b.Shifts(), b.Faults())
	}
}

func TestFaultsAddOverheadButPreserveCorrectness(t *testing.T) {
	clean := mustTape(t, 64, []int{32})
	faulty := mustTape(t, 64, []int{32})
	if err := faulty.EnableFaults(FaultModel{Prob: 0.02, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	// Write then read back through the faulty tape: data must be intact
	// (corrections realign before every access completes).
	vals := map[int]uint64{}
	for i := 0; i < 300; i++ {
		s := rng.Intn(64)
		v := rng.Uint64()
		vals[s] = v
		if _, err := clean.Write(s, v); err != nil {
			t.Fatal(err)
		}
		if _, err := faulty.Write(s, v); err != nil {
			t.Fatal(err)
		}
	}
	// Compare shift overhead over the identical write phase only.
	cleanShifts, faultyShifts := clean.Shifts(), faulty.Shifts()
	for s, v := range vals {
		got, _, err := faulty.Read(s)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("slot %d: read %d, want %d", s, got, v)
		}
	}
	if faulty.Faults() == 0 {
		t.Error("no faults injected at p=0.02 over thousands of shifts")
	}
	if faultyShifts <= cleanShifts {
		t.Errorf("faulty shifts %d not above clean %d", faultyShifts, cleanShifts)
	}
	// Expected overhead ~= p per shift (each fault costs ~1 corrective
	// shift), so 2% nominal; assert well under 10%.
	if float64(faultyShifts) > 1.1*float64(cleanShifts) {
		t.Errorf("overhead implausibly high: %d vs %d", faultyShifts, cleanShifts)
	}
}

func TestFaultsDeterministicPerSeed(t *testing.T) {
	run := func() (int64, int64) {
		tape := mustTape(t, 32, []int{0})
		if err := tape.EnableFaults(FaultModel{Prob: 0.05, Seed: 11}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 200; i++ {
			if _, _, err := tape.Read(rng.Intn(32)); err != nil {
				t.Fatal(err)
			}
		}
		return tape.Shifts(), tape.Faults()
	}
	s1, f1 := run()
	s2, f2 := run()
	if s1 != s2 || f1 != f2 {
		t.Errorf("same seed diverged: %d/%d vs %d/%d", s1, f1, s2, f2)
	}
}

func TestDeviceEnableFaults(t *testing.T) {
	d := mustDevice(t, Geometry{Tapes: 3, DomainsPerTape: 16, PortsPerTape: 1})
	if err := d.EnableFaults(FaultModel{Prob: 2}); err == nil {
		t.Error("bad model accepted")
	}
	if err := d.EnableFaults(FaultModel{Prob: 0.05, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 600; i++ {
		if _, _, err := d.Read(Address{Tape: rng.Intn(3), Slot: rng.Intn(16)}); err != nil {
			t.Fatal(err)
		}
	}
	if d.Faults() == 0 {
		t.Error("no device-level faults recorded")
	}
	// Tapes fault independently: at least two tapes should have faults.
	withFaults := 0
	for i := 0; i < 3; i++ {
		tape, err := d.Tape(i)
		if err != nil {
			t.Fatal(err)
		}
		if tape.Faults() > 0 {
			withFaults++
		}
	}
	if withFaults < 2 {
		t.Errorf("only %d tapes faulted; seeds not independent?", withFaults)
	}
}

// TestDeriveTapeSeedDistinct checks the per-tape fault seeds
// Device.EnableFaults derives: collision-free across 256 tapes, stable,
// dependent on the device seed, and the ones each tape is seeded with.
func TestDeriveTapeSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 256; i++ {
		s := stats.DeriveSeed(7, i)
		if seen[s] {
			t.Fatalf("derived seed collision at tape %d", i)
		}
		seen[s] = true
	}
	if stats.DeriveSeed(7, 3) != stats.DeriveSeed(7, 3) {
		t.Error("tape seed not stable")
	}
	if stats.DeriveSeed(7, 3) == stats.DeriveSeed(8, 3) {
		t.Error("tape seed ignores the base seed")
	}
	d := mustDevice(t, Geometry{Tapes: 4, DomainsPerTape: 8, PortsPerTape: 1})
	if err := d.EnableFaults(FaultModel{Prob: 0.1, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	for i, tape := range d.tapes {
		want := stats.Mix64(uint64(stats.DeriveSeed(7, i)) ^ 0x8CB92BA72F3D8DD7)
		if tape.pinSeed != want {
			t.Errorf("tape %d not seeded with DeriveSeed(7, %d)", i, i)
		}
	}
}

// Each tape's error process is a pure function of (device seed, tape
// index): interleaving accesses across tapes in different orders must
// leave every tape with identical per-tape shift and fault counters.
func TestDeviceFaultsTapeOrderIndependent(t *testing.T) {
	const tapes, slots, accesses = 4, 32, 120
	run := func(interleaved bool) []Counters {
		d := mustDevice(t, Geometry{Tapes: tapes, DomainsPerTape: slots, PortsPerTape: 1})
		if err := d.EnableFaults(FaultModel{Prob: 0.1, Seed: 9}); err != nil {
			t.Fatal(err)
		}
		// The same per-tape slot sequence either tape-by-tape or
		// round-robin across tapes.
		slotAt := func(tape, i int) int { return (i*7 + tape*3) % slots }
		if interleaved {
			for i := 0; i < accesses; i++ {
				for tp := 0; tp < tapes; tp++ {
					if _, _, err := d.Read(Address{Tape: tp, Slot: slotAt(tp, i)}); err != nil {
						t.Fatal(err)
					}
				}
			}
		} else {
			for tp := tapes - 1; tp >= 0; tp-- {
				for i := 0; i < accesses; i++ {
					if _, _, err := d.Read(Address{Tape: tp, Slot: slotAt(tp, i)}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return d.TapeCounters()
	}
	a, b := run(true), run(false)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("tape %d counters depend on access order: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFaultModeValidate(t *testing.T) {
	if err := (FaultModel{Prob: 0.1, Mode: FaultPinning}).Validate(); err != nil {
		t.Errorf("pinning mode rejected: %v", err)
	}
	if err := (FaultModel{Prob: 0.1, Mode: FaultMode(99)}).Validate(); err == nil {
		t.Error("unknown mode accepted")
	}
}

// The Mode field's zero value is FaultUniform, and the uniform draw
// sequence must be frozen: enabling with an explicit FaultUniform is
// identical to the pre-Mode API, and must differ from pinning (same
// seed) — otherwise the mode switch is vacuous.
func TestUniformModeFrozenAndPinningDiffers(t *testing.T) {
	run := func(mode FaultMode) (int64, int64) {
		tape := mustTape(t, 32, []int{0})
		if err := tape.EnableFaults(FaultModel{Prob: 0.1, Seed: 11, Mode: mode}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 300; i++ {
			if _, _, err := tape.Read(rng.Intn(32)); err != nil {
				t.Fatal(err)
			}
		}
		return tape.Shifts(), tape.Faults()
	}
	us, uf := run(FaultUniform)
	zs, zf := run(FaultMode(0))
	if us != zs || uf != zf {
		t.Errorf("zero-value mode diverged from FaultUniform: %d/%d vs %d/%d", zs, zf, us, uf)
	}
	ps, pf := run(FaultPinning)
	if ps == us && pf == uf {
		t.Error("pinning mode indistinguishable from uniform at the same seed")
	}
}

func TestPinningDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) (int64, int64) {
		tape := mustTape(t, 48, []int{0, 24})
		if err := tape.EnableFaults(FaultModel{Prob: 0.05, Seed: seed, Mode: FaultPinning}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 250; i++ {
			if _, _, err := tape.Read(rng.Intn(48)); err != nil {
				t.Fatal(err)
			}
		}
		return tape.Shifts(), tape.Faults()
	}
	s1, f1 := run(7)
	s2, f2 := run(7)
	if s1 != s2 || f1 != f2 {
		t.Errorf("same seed diverged: %d/%d vs %d/%d", s1, f1, s2, f2)
	}
	s3, f3 := run(8)
	if s1 == s3 && f1 == f3 {
		t.Error("different seeds produced identical pinning runs")
	}
}

// The defect map is bounded and mean-preserving: every weight lies in
// [0.25, 1.75] and the average over a long stretch of wire is ~1, so
// pinning redistributes error probability without raising its mean.
func TestPinWeightBoundedMeanOne(t *testing.T) {
	tape := mustTape(t, 8, []int{0})
	if err := tape.EnableFaults(FaultModel{Prob: 0.1, Seed: 3, Mode: FaultPinning}); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for pos := -4096; pos < 4096; pos++ {
		w := tape.pinWeight(pos)
		if w < 0.25 || w > 1.75 {
			t.Fatalf("pinWeight(%d) = %g outside [0.25, 1.75]", pos, w)
		}
		if w2 := tape.pinWeight(pos); w2 != w {
			t.Fatalf("pinWeight(%d) not stable: %g vs %g", pos, w, w2)
		}
		sum += w
	}
	mean := sum / 8192
	if mean < 0.95 || mean > 1.05 {
		t.Errorf("defect-map mean %g, want ~1", mean)
	}
}

// Pinned faults still never corrupt data: every access completes with
// the slot aligned and read-back intact, same contract as uniform.
func TestPinningPreservesCorrectness(t *testing.T) {
	tape := mustTape(t, 64, []int{32})
	if err := tape.EnableFaults(FaultModel{Prob: 0.05, Seed: 13, Mode: FaultPinning}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	vals := map[int]uint64{}
	for i := 0; i < 300; i++ {
		s := rng.Intn(64)
		v := rng.Uint64()
		vals[s] = v
		if _, err := tape.Write(s, v); err != nil {
			t.Fatal(err)
		}
	}
	for s, v := range vals {
		got, _, err := tape.Read(s)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("slot %d: read %d, want %d", s, got, v)
		}
	}
	if tape.Faults() == 0 {
		t.Error("no pinned faults injected at p=0.05 over thousands of shifts")
	}
}

// Property: after any access on a faulty tape, the requested slot is
// genuinely aligned (offset equals slot - chosen port) — corrections
// always complete.
func TestFaultyAlignmentAlwaysConverges(t *testing.T) {
	f := func(seed int64) bool {
		for _, mode := range []FaultMode{FaultUniform, FaultPinning} {
			tape, err := NewTape(32, []int{5, 20})
			if err != nil {
				return false
			}
			if err := tape.EnableFaults(FaultModel{Prob: 0.3, Seed: seed, Mode: mode}); err != nil {
				return false
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				s := rng.Intn(32)
				if _, _, err := tape.Read(s); err != nil {
					return false
				}
				// Some port must be exactly aligned with s.
				aligned := false
				for _, q := range tape.ports {
					if s-q == tape.Offset() {
						aligned = true
					}
				}
				if !aligned {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
