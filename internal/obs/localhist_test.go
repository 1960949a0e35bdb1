package obs

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/stats"
)

// TestLocalHistogramFlushVsSnapshot exercises the documented concurrency
// contract under the race detector: each LocalHistogram is owned by one
// goroutine, but Flush (atomic adds into the shared histogram) may run
// concurrently with Stats (atomic loads) from another goroutine. The
// snapshot may be mid-flush — counts can lag sum — but no observation is
// ever lost and the final totals are exact.
func TestLocalHistogramFlushVsSnapshot(t *testing.T) {
	h := newHistogram([]float64{4, 16, 64, 256})
	const (
		goroutines = 4
		rounds     = 50
		perRound   = 20
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Reader: snapshots continuously while writers flush.
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var prev int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := h.Stats()
			if st.Count < prev {
				t.Errorf("count went backwards: %d after %d", st.Count, prev)
				return
			}
			prev = st.Count
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := h.Local()
			for r := 0; r < rounds; r++ {
				for i := 0; i < perRound; i++ {
					l.Observe(int64((g*31 + r*7 + i) % 300))
				}
				l.Flush()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	reader.Wait()

	st := h.Stats()
	if want := int64(goroutines * rounds * perRound); st.Count != want {
		t.Fatalf("final count %d, want %d", st.Count, want)
	}
	var bucketSum int64
	for _, c := range st.Counts {
		bucketSum += c
	}
	if bucketSum != st.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, st.Count)
	}
}

// TestHistogramMergeQuantileOracle merges per-goroutine local buffers
// into one shared histogram and checks every quantile against the exact
// answer computed from the raw samples: the histogram's nearest-rank
// quantile must equal the bucket upper bound that contains the raw
// nearest-rank sample — bucket resolution is the only information the
// histogram is allowed to lose.
func TestHistogramMergeQuantileOracle(t *testing.T) {
	bounds := []float64{2, 8, 32, 128, 512}
	h := newHistogram(bounds)

	const goroutines = 6
	var mu sync.Mutex
	var raw []float64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := h.Local()
			var mine []float64
			// Deterministic per-goroutine stream via the splitmix chain.
			state := uint64(g)*0x9E3779B97F4A7C15 + 1
			for i := 0; i < 500; i++ {
				state = stats.Mix64(state + 0x632BE59BD9B4E019)
				v := int64(state % 700)
				l.Observe(v)
				mine = append(mine, float64(v))
			}
			l.Flush()
			mu.Lock()
			raw = append(raw, mine...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()

	st := h.Stats()
	if want := int64(goroutines * 500); st.Count != want {
		t.Fatalf("merged count %d, want %d", st.Count, want)
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		exact, err := stats.Quantile(append([]float64(nil), raw...), q)
		if err != nil {
			t.Fatal(err)
		}
		// The bucket that holds the exact sample is the histogram's answer
		// (or +Inf past the last bound).
		i := sort.SearchFloat64s(bounds, exact)
		got := st.Quantile(q)
		if i == len(bounds) {
			if !isInf(got) {
				t.Errorf("q=%g: got %g, want +Inf (exact %g beyond last bound)", q, got, exact)
			}
			continue
		}
		if got != bounds[i] {
			t.Errorf("q=%g: histogram %g, oracle bucket %g (exact %g)", q, got, bounds[i], exact)
		}
	}
}

func isInf(f float64) bool { return f > 1e308 }
