// Package workload generates the access traces used throughout the
// evaluation.
//
// The original paper evaluates on variable access sequences extracted from
// embedded benchmark kernels. This reproduction substitutes generators that
// emit the access sequences the named kernels actually perform: a FIR
// filter really does slide a window over its delay line and coefficient
// array, matrix multiply really does walk rows and columns, and so on. The
// placement problem sees only the resulting sequence, so the locality
// structure that drives the paper's results is preserved (substitution
// documented in DESIGN.md §4).
//
// Every generator is deterministic given its seed, so experiments are
// exactly reproducible.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/trace"
)

// Generator produces a trace from a seed. Generators with no random
// component ignore the seed.
type Generator struct {
	// Name identifies the workload (used in tables and trace files).
	Name string
	// Description says what kernel the trace models.
	Description string
	// Make builds the trace.
	Make func(seed int64) *trace.Trace
}

// Suite returns the standard benchmark suite used by the experiments, in
// table order. Sizes are chosen so that working sets are in the tens of
// items (scratchpad scale, matching a DWM placement study) and traces are
// thousands of accesses long.
func Suite() []Generator {
	return []Generator{
		{
			Name:        "fir",
			Description: "32-tap FIR filter over 256 samples (delay line + coefficients)",
			Make:        func(int64) *trace.Trace { return FIR(32, 256) },
		},
		{
			Name:        "iir",
			Description: "cascade of 8 biquad IIR sections over 256 samples",
			Make:        func(int64) *trace.Trace { return IIR(8, 256) },
		},
		{
			Name:        "matmul",
			Description: "6x6 dense matrix multiply (A, B, C element variables)",
			Make:        func(int64) *trace.Trace { return MatMul(6) },
		},
		{
			Name:        "fft",
			Description: "64-point in-place radix-2 FFT butterfly accesses",
			Make:        func(int64) *trace.Trace { return FFT(64) },
		},
		{
			Name:        "sort",
			Description: "insertion sort of 48 elements (data-dependent trace)",
			Make:        func(seed int64) *trace.Trace { return InsertionSort(48, seed) },
		},
		{
			Name:        "stencil",
			Description: "1D 3-point stencil over a 64-cell array, 32 sweeps",
			Make:        func(int64) *trace.Trace { return Stencil1D(64, 32) },
		},
		{
			Name:        "histogram",
			Description: "Zipf-distributed histogram over 64 bins, 8192 updates",
			Make:        func(seed int64) *trace.Trace { return Histogram(64, 8192, 1.1, seed) },
		},
		{
			Name:        "ptrchase",
			Description: "pointer chase over 64 nodes, 4096 hops",
			Make:        func(seed int64) *trace.Trace { return PointerChase(64, 4096, seed) },
		},
		{
			Name:        "crc",
			Description: "byte-wise CRC over 2048 bytes with a 32-entry nibble table",
			Make:        func(seed int64) *trace.Trace { return CRC(2048, seed) },
		},
		{
			Name:        "zigzag",
			Description: "JPEG-style zigzag scans of 8x8 blocks, 64 blocks",
			Make:        func(int64) *trace.Trace { return Zigzag(64) },
		},
		{
			Name:        "conv2d",
			Description: "3x3 convolution over an 8x8 output tile (inputs + weights + outputs)",
			Make:        func(int64) *trace.Trace { return Conv2D(8) },
		},
		{
			Name:        "spmv",
			Description: "sparse matrix-vector product, 32x32, 4 nnz/row, 64 iterations",
			Make:        func(seed int64) *trace.Trace { return SpMV(32, 4, 64, seed) },
		},
		{
			Name:        "markov",
			Description: "1D locality walk over 64 items with scrambled numbering",
			Make:        func(seed int64) *trace.Trace { return Markov(64, 8192, seed) },
		},
		{
			Name:        "uniform",
			Description: "uniform random accesses over 64 items (adversarial baseline)",
			Make:        func(seed int64) *trace.Trace { return Uniform(64, 8192, seed) },
		},
		{
			Name:        "zipf",
			Description: "Zipf(1.3) random accesses over 64 items",
			Make:        func(seed int64) *trace.Trace { return Zipf(64, 8192, 1.3, seed) },
		},
	}
}

// ByName returns the named generator from the standard suite.
func ByName(name string) (Generator, error) {
	for _, g := range Suite() {
		if g.Name == name {
			return g, nil
		}
	}
	return Generator{}, fmt.Errorf("workload: unknown workload %q", name)
}

// zipfWeights returns normalized cumulative weights for Zipf(s) over n
// ranks, used by the Zipf-shaped generators. rank 0 is the most popular.
func zipfCumulative(n int, s float64) []float64 {
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		w[i] = 1.0 / math.Pow(float64(i+1), s)
		total += w[i]
	}
	cum := make([]float64, n)
	run := 0.0
	for i := range w {
		run += w[i] / total
		cum[i] = run
	}
	cum[n-1] = 1.0 // guard against rounding
	return cum
}

// sampleCumulative draws an index from a cumulative distribution.
func sampleCumulative(cum []float64, rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(cum, u)
}
