package core

import (
	"math"
	"math/rand"
	"testing"
)

// metropolis is the plain uphill acceptance rule acceptUphill must
// reproduce decision for decision.
func metropolis(u float64, d int64, temp float64) bool {
	return u < math.Exp(-float64(d)/temp)
}

func checkAccept(t *testing.T, u float64, d int64, temp float64) {
	t.Helper()
	if got, want := acceptUphill(u, d, temp, 1/temp), metropolis(u, d, temp); got != want {
		t.Fatalf("acceptUphill(u=%v, d=%d, temp=%v) = %v, math.Exp rule says %v (e^-x = %v)",
			u, d, temp, got, want, math.Exp(-float64(d)/temp))
	}
}

// TestAcceptUphillTable pins the corner cases: u == 0, the 1e-6
// temperature floor, d = 1, huge d, infinite and NaN temperatures, a
// denormal temperature whose reciprocal overflows, and u one ulp either
// side of e^-x.
func TestAcceptUphillTable(t *testing.T) {
	huge := []int64{1 << 40, 1 << 53, 1<<53 + 1, math.MaxInt64}
	temps := []float64{1e-6, 1e-3, 0.5, 1, 3, 100, 1e6, 1e300, math.Inf(1), math.NaN(), 5e-324}
	us := []float64{0, 1.0 / (1 << 63), 1e-300, 1e-9, 0.25, 0.5, 1 - 1.0/(1<<53)}
	for _, temp := range temps {
		for _, d := range append([]int64{1, 2, 3, 7, 100, 4096, 65536}, huge...) {
			for _, u := range us {
				checkAccept(t, u, d, temp)
			}
			if e := math.Exp(-float64(d) / temp); e > 0 && e < 1 {
				checkAccept(t, e, d, temp)
				checkAccept(t, math.Nextafter(e, 0), d, temp)
				checkAccept(t, math.Nextafter(e, 1), d, temp)
			}
		}
	}
}

// TestAcceptUphillProperty compares acceptUphill with the math.Exp rule
// on random moves across twelve decades of d/temp, with u drawn both
// uniformly (as the chain draws it) and packed around e^-x and the two
// Taylor brackets, where a wrong guard would show first.
func TestAcceptUphillProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		d := int64(1) + rng.Int63n(int64(1)<<uint(rng.Intn(41)))
		temp := math.Pow(10, -6+18*rng.Float64())
		checkAccept(t, rng.Float64(), d, temp)

		x := float64(d) / temp
		e := math.Exp(-x)
		lower := 1 - x + x*x/2 - x*x*x/6
		upper := 1 / (1 + x + x*x/2 + x*x*x/6)
		for _, c := range []float64{e, lower, upper} {
			if !(c > 0 && c < 1) {
				continue
			}
			r := 1 + (rng.Float64()-0.5)*1e-8 // inside and around the 1e-9 guard
			checkAccept(t, c*r, d, temp)
			checkAccept(t, math.Nextafter(c, 0), d, temp)
			checkAccept(t, math.Nextafter(c, 1), d, temp)
		}
	}
}
