package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 1 || s.Mean != 5 || s.Stddev != 0 || s.Min != 5 || s.Max != 5 {
		t.Errorf("summary %+v", s)
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	// 2, 4, 4, 4, 5, 5, 7, 9: mean 5, sample stddev sqrt(32/7).
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 5 {
		t.Errorf("mean %g", s.Mean)
	}
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Stddev-want) > 1e-12 {
		t.Errorf("stddev %g, want %g", s.Stddev, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max %g/%g", s.Min, s.Max)
	}
}

func TestStringFormat(t *testing.T) {
	s, err := Summarize([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	out := s.String()
	if !strings.Contains(out, "2.0 ±") || !strings.Contains(out, "[1.0, 3.0]") {
		t.Errorf("format %q", out)
	}
}

// Properties: mean within [min, max]; stddev non-negative; shifting the
// sample shifts the mean and preserves the stddev.
func TestSummaryProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*200 - 100
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 || s.Stddev < 0 {
			return false
		}
		shifted := make([]float64, n)
		for i := range xs {
			shifted[i] = xs[i] + 42
		}
		s2, err := Summarize(shifted)
		if err != nil {
			return false
		}
		return math.Abs(s2.Mean-s.Mean-42) < 1e-9 && math.Abs(s2.Stddev-s.Stddev) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Mix64 is the splitmix64 finalizer: seeded with the golden-ratio
// increment it yields splitmix64's published first outputs, which pins
// every stream derived from it.
func TestMix64KnownValues(t *testing.T) {
	const gamma = 0x9E3779B97F4A7C15
	for i, want := range []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F} {
		if got := Mix64(uint64(i+1) * gamma); got != want {
			t.Errorf("Mix64(%d·gamma) = %#x, want %#x", i+1, got, want)
		}
	}
	if FoldSeq(1, 2) != Mix64(0x100000001B3+2) {
		t.Error("FoldSeq is not Mix64(h·FNV prime + v)")
	}
}

// TestDeriveSeedPinned pins the derivation: every anneal golden and
// E18's fault draws were recorded with it. Its callers' own tests
// (core.TestDeriveSeedDistinct, dwm.TestDeriveTapeSeedDistinct) check
// the seeds they derive are collision-free and depend on the base seed.
func TestDeriveSeedPinned(t *testing.T) {
	step := uint64(0x9E3779B97F4A7C15)
	if got, want := DeriveSeed(1, 5), int64(Mix64(1+5*step)); got != want {
		t.Errorf("DeriveSeed(1, 5) = %d, want %d", got, want)
	}
	if got, want := DeriveSeed(7, 0), int64(Mix64(7)); got != want {
		t.Errorf("DeriveSeed(7, 0) = %d, want %d", got, want)
	}
}

// TestDeriveNamedSeedPinned pins the named derivation to values recorded
// before it moved here from the experiment harness: every service job's
// and stream's seed, and so every cached and journaled result, was
// derived with it.
func TestDeriveNamedSeedPinned(t *testing.T) {
	for _, c := range []struct {
		seed int64
		id   string
		row  int
		want int64
	}{
		{7, "serve/fir", 1000, 2301512676198795027},
		{-3, "stream/s", 16, -7024825108422240401},
		{1, "E2", 0, -3026284798295768627},
	} {
		if got := DeriveNamedSeed(c.seed, c.id, c.row); got != c.want {
			t.Errorf("DeriveNamedSeed(%d, %q, %d) = %d, want %d", c.seed, c.id, c.row, got, c.want)
		}
	}
}
