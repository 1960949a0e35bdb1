package obs

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/stats"
)

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", []float64{1, 2, 4})
	for _, v := range []int64{0, 1, 1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	s := h.Stats()
	want := []int64{3, 1, 2, 1} // le1: {0,1,1}, le2: {2}, le4: {3,4}, +Inf: {100}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 || s.Sum != 111 {
		t.Errorf("count=%d sum=%d, want 7, 111", s.Count, s.Sum)
	}
}

func TestHistogramEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("empty", []float64{1, 10})
	s := h.Stats()
	if s.Count != 0 || s.Sum != 0 {
		t.Fatalf("empty histogram: count=%d sum=%d", s.Count, s.Sum)
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("Quantile(0.5) of empty = %v, want 0", got)
	}
	// The exposition of an empty histogram is still complete and valid.
	var b strings.Builder
	if err := r.Snapshot().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`dwm_empty_bucket{le="+Inf"} 0`, "dwm_empty_sum 0", "dwm_empty_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("empty-histogram exposition missing %q in:\n%s", want, out)
		}
	}
	if err := LintExpositionOpts(strings.NewReader(out), LintOptions{}); err != nil {
		t.Errorf("empty-histogram exposition fails lint: %v", err)
	}
}

func TestHistogramSingleBucketOverflow(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("one", []float64{10})
	h.Observe(5)   // in the single finite bucket
	h.Observe(10)  // boundary: le is inclusive
	h.Observe(11)  // overflow
	h.Observe(1e6) // overflow
	s := h.Stats()
	if s.Counts[0] != 2 || s.Counts[1] != 2 {
		t.Fatalf("counts = %v, want [2 2]", s.Counts)
	}
	// The median is bounded by the finite bucket; the p95 is not.
	if got := s.Quantile(0.5); got != 10 {
		t.Errorf("Quantile(0.5) = %v, want 10", got)
	}
	if got := s.Quantile(0.95); !math.IsInf(got, 1) {
		t.Errorf("Quantile(0.95) = %v, want +Inf (overflow bucket)", got)
	}
}

func TestHistogramInfBucketCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("cum", []float64{1, 2})
	for v := int64(0); v < 10; v++ {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.Snapshot().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Cumulative buckets: le1 counts {0,1}, le2 adds {2}, +Inf all 10 —
	// and +Inf must equal _count exactly.
	for _, want := range []string{
		`dwm_cum_bucket{le="1"} 2`,
		`dwm_cum_bucket{le="2"} 3`,
		`dwm_cum_bucket{le="+Inf"} 10`,
		"dwm_cum_count 10",
		"dwm_cum_sum 45",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if err := LintExpositionOpts(strings.NewReader(out), LintOptions{}); err != nil {
		t.Errorf("exposition fails lint: %v", err)
	}
}

// The histogram quantile and the raw-sample nearest-rank quantile in
// internal/stats agree exactly when every observation sits on a bucket
// bound — the histogram resolves each rank to its bucket's upper bound,
// which then IS the sample value.
func TestHistogramQuantileAgreesWithStats(t *testing.T) {
	bounds := []float64{1, 2, 4, 8, 16, 32}
	r := NewRegistry()
	h := r.Histogram("agree", bounds)
	var sample []float64
	// A skewed pile-up at small distances with a long tail, the shape
	// shift-distance distributions take.
	for i, n := range []int{37, 19, 11, 7, 3, 2} {
		for k := 0; k < n; k++ {
			h.Observe(int64(bounds[i]))
			sample = append(sample, bounds[i])
		}
	}
	s := h.Stats()
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
		want, err := stats.Quantile(sample, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Quantile(q); got != want {
			t.Errorf("Quantile(%v): hist %v, stats %v", q, got, want)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc", []float64{10, 100})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(i % 200))
			}
		}(g)
	}
	wg.Wait()
	s := h.Stats()
	if s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":      {},
		"descending": {2, 1},
		"duplicate":  {1, 1},
		"inf":        {1, math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds %v did not panic", name, bounds)
				}
			}()
			newHistogram(bounds)
		}()
	}
}

func TestHistogramResetAndReuse(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("reset", []float64{5})
	h.Observe(1)
	h.Observe(100)
	r.Reset()
	s := h.Stats()
	if s.Count != 0 || s.Sum != 0 {
		t.Fatalf("after Reset: count=%d sum=%d", s.Count, s.Sum)
	}
	// Same name returns the same instrument; the registered bounds win.
	if h2 := r.Histogram("reset", []float64{1, 2, 3}); h2 != h {
		t.Fatal("re-registration returned a different instrument")
	}
}
