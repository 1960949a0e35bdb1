package obs_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	_ "repro/internal/core" // registers core.anneal.proposal_delta
	"repro/internal/obs"
	_ "repro/internal/serve" // registers the serve.* histograms
	_ "repro/internal/sim"   // registers sim.shift_distance
	"repro/internal/wal"
)

// maxExact bounds the values whose float64 conversion is exact; inside
// it the integer search must agree with the float one it replaced.
const maxExact = 1<<53 - 1

// checkBucketSearch compares obs's integer bucket search with
// sort.SearchFloat64s over float64(v) on the bounds' edges (each floor
// and its neighbours), the int64 extremes of the exact range, and random
// values both near the bounds and across the whole exact range.
func checkBucketSearch(t *testing.T, name string, bounds []float64) {
	t.Helper()
	h := obs.NewRegistry().Histogram(name, bounds)
	vals := []int64{0, 1, -1, maxExact, -maxExact}
	for _, b := range bounds {
		f := math.Floor(b)
		if math.Abs(f) > maxExact-2 {
			continue
		}
		for d := int64(-2); d <= 2; d++ {
			vals = append(vals, int64(f)+d)
		}
	}
	rng := rand.New(rand.NewSource(int64(len(name))))
	span := int64(4 * math.Min(math.Abs(bounds[len(bounds)-1])+1, maxExact/4))
	for i := 0; i < 4000; i++ {
		vals = append(vals, rng.Int63n(2*span+1)-span, rng.Int63n(2*maxExact+1)-maxExact)
	}
	for _, v := range vals {
		want := sort.SearchFloat64s(bounds, float64(v))
		if got := obs.BucketOf(h, v); got != want {
			t.Fatalf("%s: bucket(%d) = %d, sort.SearchFloat64s = %d (bounds %v)", name, v, got, want, bounds)
		}
	}
}

// TestBucketSearchMatchesFloatOnRegisteredBounds runs the comparison on
// every histogram the repository registers: the package-level ones of
// core, sim and serve, and the per-journal one wal.Open adds.
func TestBucketSearchMatchesFloatOnRegisteredBounds(t *testing.T) {
	l, err := wal.Open(wal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	hists := obs.Default().Snapshot().Histograms
	for _, name := range []string{"core.anneal.proposal_delta", "sim.shift_distance",
		"serve.job.wall_ms", "wal.fsync_ms"} {
		if _, ok := hists[name]; !ok {
			t.Fatalf("histogram %s not registered", name)
		}
	}
	names := make([]string, 0, len(hists))
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		checkBucketSearch(t, name, hists[name].Bounds)
	}
}

// TestBucketSearchMatchesFloatOnOddBounds covers bounds no package
// registers today: negative, fractional, and beyond the int64 range,
// where the precomputed floors saturate.
func TestBucketSearchMatchesFloatOnOddBounds(t *testing.T) {
	checkBucketSearch(t, "odd", []float64{-1e19, -7.5, -2, -0.25, 0.5, 3, 3.75, 1e15, 1e19})
	checkBucketSearch(t, "tiny", []float64{0.1, 0.2, 0.3})
	checkBucketSearch(t, "single", []float64{0})
}

// TestBucketTableMatchesSearch is the oracle of the class table: on the
// two histograms whose bounds are 0 and powers of two it must return
// what the binary search returns at every bound and its neighbours, at
// 2^k and 2^k ± 1 for every k, and at the int64 extremes. Histograms with
// other bounds must keep the search.
func TestBucketTableMatchesSearch(t *testing.T) {
	hists := obs.Default().Snapshot().Histograms
	for _, name := range []string{"core.anneal.proposal_delta", "sim.shift_distance"} {
		h := obs.NewRegistry().Histogram(name, hists[name].Bounds)
		if !obs.HasTable(h) {
			t.Fatalf("%s (bounds %v) has no class table", name, hists[name].Bounds)
		}
		vals := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
		for _, b := range hists[name].Bounds {
			vals = append(vals, int64(b)-1, int64(b), int64(b)+1)
		}
		for k := 0; k < 63; k++ {
			p := int64(1) << k
			vals = append(vals, p-1, p, p+1, -p)
		}
		for _, v := range vals {
			if got, want := obs.BucketOf(h, v), obs.SearchOf(h, v); got != want {
				t.Fatalf("%s: table bucket(%d) = %d, search = %d", name, v, got, want)
			}
		}
	}
	for _, bounds := range [][]float64{obs.LatencyBoundsMS, {0, 1, 3, 4}, {0.5, 3}, {-1, 0, 1}} {
		if h := obs.NewRegistry().Histogram("other", bounds); obs.HasTable(h) {
			t.Errorf("bounds %v got a class table; a class spans two of their buckets", bounds)
		}
	}
}
