package obs

import (
	"math/rand"
	"testing"
)

// BenchmarkLocalHistogramObserve times LocalHistogram.Observe, the
// per-step cost the anneal chain and the simulator pay, on bounds of 0
// and powers of two (core.anneal.proposal_delta's, looked up by class
// table) and on LatencyBoundsMS (binary search), over values spread
// across every bucket of each.
func BenchmarkLocalHistogramObserve(b *testing.B) {
	for _, bc := range []struct {
		name   string
		bounds []float64
	}{
		{"pow2", []float64{0, 1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}},
		{"latency", LatencyBoundsMS},
	} {
		b.Run(bc.name, func(b *testing.B) {
			l := newHistogram(bc.bounds).Local()
			top := int64(2 * bc.bounds[len(bc.bounds)-1])
			rng := rand.New(rand.NewSource(1))
			vals := make([]int64, 1024)
			for i := range vals {
				vals[i] = rng.Int63n(top) - top/8
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Observe(vals[i&(len(vals)-1)])
			}
		})
	}
}
