package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/trace"
)

// Conv2D generates the trace of a 3x3 convolution over an out x out
// output tile: inputs are an (out+2) x (out+2) tile, followed by the 9
// kernel weights, followed by the out x out outputs. Per output pixel the
// kernel reads each input/weight pair and writes the result, giving the
// 2D-neighborhood access structure that distinguishes convolutions from
// 1D streams.
func Conv2D(out int) *trace.Trace {
	if out < 1 {
		panic(fmt.Sprintf("workload: Conv2D output size %d < 1", out))
	}
	in := out + 2
	inAt := func(i, j int) int { return i*in + j }
	wAt := func(k int) int { return in*in + k }
	outAt := func(i, j int) int { return in*in + 9 + i*out + j }
	tr := trace.New(fmt.Sprintf("conv2d out=%dx%d", out, out), in*in+9+out*out)
	for i := 0; i < out; i++ {
		for j := 0; j < out; j++ {
			for di := 0; di < 3; di++ {
				for dj := 0; dj < 3; dj++ {
					tr.Read(inAt(i+di, j+dj))
					tr.Read(wAt(di*3 + dj))
				}
			}
			tr.Write(outAt(i, j))
		}
	}
	return tr
}

// SpMV generates the trace of y = A*x for a sparse n x n matrix with
// nnzPerRow random nonzeros per row (seeded pattern, fixed across the
// given number of repetitions — the matrix structure is static, as in
// iterative solvers). The matrix values stream from main memory; only the
// x vector (items 0..n-1) and y vector (items n..2n-1) live on the
// scratchpad.
func SpMV(n, nnzPerRow, reps int, seed int64) *trace.Trace {
	if nnzPerRow > n {
		nnzPerRow = n
	}
	tr := trace.New(fmt.Sprintf("spmv n=%d nnz/row=%d reps=%d", n, nnzPerRow, reps), 2*n)
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]int, n)
	for i := range cols {
		cols[i] = append(cols[i], rng.Perm(n)[:nnzPerRow]...)
	}
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			for _, k := range cols[i] {
				tr.Read(k) // x[k]
			}
			tr.Write(n + i) // y[i]
		}
	}
	return tr
}

// Markov generates a bounded 1D locality walk: the next item is the
// current one plus a small step (weighted toward short steps), reflected
// at the boundaries. The trace has strong but noisy spatial structure
// that a placement algorithm must *discover* — the item numbering is
// scrambled by a seeded permutation first, so program order sees no
// locality at all.
func Markov(n, length int, seed int64) *trace.Trace {
	tr := trace.New(fmt.Sprintf("markov n=%d len=%d", n, length), n)
	rng := rand.New(rand.NewSource(seed))
	relabel := rng.Perm(n) // hide the chain structure from first-touch order
	steps := []int{-3, -2, -1, 1, 2, 3}
	weights := []int{1, 3, 8, 8, 3, 1}
	totalW := 0
	for _, w := range weights {
		totalW += w
	}
	cur := n / 2
	for i := 0; i < length; i++ {
		tr.Read(relabel[cur])
		u := rng.Intn(totalW)
		step := 0
		for k, w := range weights {
			if u < w {
				step = steps[k]
				break
			}
			u -= w
		}
		cur += step
		// Reflect at the ends. A walk of fewer items than the longest
		// step can bounce off both, so repeat until cur is inside.
		for cur < 0 || cur >= n {
			switch {
			case n == 1:
				cur = 0
			case cur < 0:
				cur = -cur
			default:
				cur = 2*(n-1) - cur
			}
		}
	}
	return tr
}
