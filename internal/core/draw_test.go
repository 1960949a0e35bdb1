package core

import (
	"math"
	"math/rand"
	"testing"
)

// drawBounds are the n the differential test draws Intn(n) for: the
// smallest bounds, small primes, powers of two (Int31n's mask path),
// the benchmark's anneal sizes, the largest item count a trace may
// declare and its neighbour, bounds just above a power of two (where
// Int31n rejects up to half of its draws), and the largest n that Intn
// hands to Int31n.
var drawBounds = []int{
	1, 2, 3, 5, 7, 11, 13, 31, 97,
	4, 64, 1 << 10, 1 << 16, 1 << 30,
	160, 224, 1<<22 - 3, 1 << 22,
	1<<30 + 1, 3 << 29, 1<<31 - 1,
}

// drawSeeds include negative seeds, zero (which rngSource replaces with
// a fixed seed), multiples of 2³¹−1 (which reduce to zero) and the int64
// extremes.
var drawSeeds = []int64{
	0, 1, 2, 7, 42, 1 << 40, -1, -7, -(1 << 40),
	math.MaxInt32, -math.MaxInt32, 3 * math.MaxInt32,
	math.MaxInt64, math.MinInt64,
}

// TestDrawSourceMatchesMathRand is the oracle of the anneal chain's draw
// source: for every seed and bound it must return, draw for draw, what
// rand.New(rand.NewSource(seed)) returns from Intn(n) and Float64,
// interleaved in an irregular pattern and run long enough to wrap the
// ring many times.
func TestDrawSourceMatchesMathRand(t *testing.T) {
	const draws = 5000
	for _, seed := range drawSeeds {
		for _, n := range drawBounds {
			want := rand.New(rand.NewSource(seed))
			got := newDrawSource(seed, n)
			pick := uint32(seed) | 1 // picks Intn or Float64 per draw
			for k := 0; k < draws; k++ {
				pick ^= pick << 13
				pick ^= pick >> 17
				pick ^= pick << 5
				if pick%3 != 0 {
					if w, g := want.Intn(n), got.intn(); w != g {
						t.Fatalf("seed %d n %d draw %d: intn = %d, math/rand Intn = %d", seed, n, k, g, w)
					}
				} else if w, g := want.Float64(), got.float64(); w != g {
					t.Fatalf("seed %d n %d draw %d: float64 = %v, math/rand Float64 = %v", seed, n, k, g, w)
				}
			}
		}
	}
}

// TestDrawSourceFloat64Resamples checks the branch the differential test
// cannot reach, which math/rand takes once in about 2⁵⁴ draws: an
// output whose Int63 rounds to 2⁶³ is skipped, as Float64 skips a
// quotient of 1, and the next output is used instead.
func TestDrawSourceFloat64Resamples(t *testing.T) {
	s := newDrawSource(1, 2)
	s.ring[s.t&ringMask] = 1<<63 - 1
	next := s.ring[(s.t+1)&ringMask]
	if got, want := s.float64(), float64(next&(1<<63-1))/(1<<63); got != want {
		t.Fatalf("float64 = %v after an output that rounds to 1, want the next output's %v", got, want)
	}
}
