package obs

// Fixed-bucket histograms. A Histogram is as cheap to update as a
// Counter (a bucket lookup plus two atomic adds), so the hot layers keep
// theirs on unconditionally: the simulator observes per-access shift
// distances, the annealer its proposal deltas, and the serving layer
// queue-wait and job latency. The lookup is one table load for bounds
// of 0 and powers of two, which the two per-step histograms have, and an
// integer binary search over a handful of bounds for the rest; the
// per-step callers buffer through a LocalHistogram, which needs no
// atomics. Distributions — not totals — are how the placement papers
// diagnose quality, and how a perf regression in the tail shows up
// before it moves a mean.

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram counts int64 observations into fixed buckets. Bucket i
// holds observations v with v <= Bounds[i] (and v > Bounds[i-1]); one
// extra overflow bucket holds everything above the last bound — the
// +Inf bucket of the Prometheus exposition. The zero value is unusable;
// obtain one from a Registry.
type Histogram struct {
	bounds []float64
	// ibounds[i] is floor(bounds[i]), clamped to the int64 range. For an
	// int64 v, v <= bounds[i] exactly when v <= ibounds[i], so the bucket
	// search runs on integers (see bucket).
	ibounds []int64
	// table, when non-nil, maps each class of v (see class) to its
	// bucket; newHistogram builds it when every class falls in one
	// bucket.
	table  *[classes]uint8
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Int64
	// exemplars holds, per bucket, the most recent traced observation
	// (see ObserveTrace) — the breadcrumb that links a latency bucket
	// back to a concrete request in /debug/events. Last-write-wins; nil
	// entries mean the bucket has never seen a traced observation.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one observation to the trace it belonged to.
type Exemplar struct {
	// Trace is the cross-process trace ID (see TraceContext) of the
	// request that produced the observation.
	Trace string `json:"trace"`
	// Value is the observed value.
	Value int64 `json:"value"`
}

// LatencyBoundsMS are the bucket bounds of every millisecond latency
// histogram (the serving layer's queue wait, job wall, append and
// per-tenant latencies, the experiment runner's queue wait and wall):
// 1 ms to one minute in roughly half-decade steps.
var LatencyBoundsMS = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 60000}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %v", i, bounds))
		}
	}
	for _, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			panic("obs: histogram bounds must be finite (the +Inf bucket is implicit)")
		}
	}
	h := &Histogram{
		bounds:    append([]float64(nil), bounds...),
		ibounds:   make([]int64, len(bounds)),
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
	for i, b := range bounds {
		h.ibounds[i] = floorInt64(b)
	}
	h.table = classTable(h)
	return h
}

// classes is the number of values class takes.
const classes = 65

// class sorts v into one of 65 ranges, with one bits.Len64 (an LZCNT or
// BSR): 64 for v <= 0, 0 for v = 1, and k for 2^(k-1) < v <= 2^k. Bounds
// of 0 and powers of two, like those of core.anneal.proposal_delta and
// sim.shift_distance, never split a class, so for them the class decides
// the bucket.
func class(v int64) int {
	return bits.Len64(uint64(max(v, 0) - 1))
}

// classTable returns the class-to-bucket table of h, or nil when some
// class spans two buckets. h must not have a table yet, so that
// h.bucket searches. The search is monotone in v, so a class lies in one
// bucket exactly when its smallest and largest values do.
func classTable(h *Histogram) *[classes]uint8 {
	if len(h.counts) > math.MaxUint8+1 {
		return nil
	}
	var t [classes]uint8
	for c := range t {
		var lo, hi int64
		switch {
		case c == classes-1:
			lo, hi = math.MinInt64, 0
		case c == 0:
			lo, hi = 1, 1
		case c == classes-2:
			lo, hi = 1<<(c-1)+1, math.MaxInt64
		default:
			lo, hi = 1<<(c-1)+1, 1<<c
		}
		b := h.bucket(lo)
		if h.bucket(hi) != b {
			return nil
		}
		t[c] = uint8(b)
	}
	return &t
}

// floorInt64 is floor(b) saturated to the int64 range. Saturation keeps
// the order against every |v| < 2⁵³, the range bucket is exact on: such
// a v is below any bound of 2⁶³ or more and above any bound under -2⁶³.
func floorInt64(b float64) int64 {
	switch f := math.Floor(b); {
	case f >= math.MaxInt64: // 2⁶³ after rounding
		return math.MaxInt64
	case f < math.MinInt64:
		return math.MinInt64
	default:
		return int64(f)
	}
}

// bucket returns the index of the bucket holding v: the first i with
// v <= bounds[i], or len(bounds) for the overflow bucket. The hot loops
// (anneal proposals, simulated accesses) call it once per step, on
// histograms whose bounds let it be one table load (see class). Every
// other histogram takes a binary search over the integer bounds: the
// integer form of sort.SearchFloat64s(bounds, float64(v)), which it
// agrees with whenever float64(v) is exact (|v| < 2⁵³); beyond that the
// float search rounds v first and this one does not. Integer compares
// spare the caller the float conversion and sort.Search's callback.
//
// The search is written out here, not called: a call would cost the
// inliner more than bucket's whole budget, and bucket must stay
// inlinable into LocalHistogram.Observe (make inline-check).
func (h *Histogram) bucket(v int64) int {
	if h.table != nil {
		return int(h.table[class(v)])
	}
	lo, hi := 0, len(h.ibounds)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); h.ibounds[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// resetHistogram zeroes a histogram in place (Registry.Reset and the
// vec reset path).
func resetHistogram(h *Histogram) {
	for i := range h.counts {
		h.counts[i].Store(0)
		h.exemplars[i].Store(nil)
	}
	h.sum.Store(0)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := h.bucket(v)
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveTrace records one value and, when traceID is nonempty, stamps
// it as the bucket's exemplar. One atomic pointer store on top of
// Observe — cheap enough for the serving layer to use on every request.
func (h *Histogram) ObserveTrace(v int64, traceID string) {
	i := h.bucket(v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{Trace: traceID, Value: v})
	}
}

// Local returns a single-goroutine accumulation buffer for this
// histogram. Hot loops that observe once per iteration (the annealer's
// proposal deltas) buffer locally — a bucket search plus a plain
// increment, no shared-cacheline traffic — and Flush once when the loop
// ends, mirroring how those loops already batch their counters.
func (h *Histogram) Local() *LocalHistogram {
	return &LocalHistogram{h: h, counts: make([]int64, len(h.counts))}
}

// LocalHistogram buffers observations for one goroutine; see
// Histogram.Local. Not safe for concurrent use.
type LocalHistogram struct {
	h      *Histogram
	counts []int64
	sum    int64
}

// Observe records one value into the local buffer.
func (l *LocalHistogram) Observe(v int64) {
	l.counts[l.h.bucket(v)]++
	l.sum += v
}

// Flush adds the buffered observations to the shared histogram and
// clears the buffer, so a LocalHistogram can be reused.
func (l *LocalHistogram) Flush() {
	for i, c := range l.counts {
		if c != 0 {
			l.h.counts[i].Add(c)
			l.counts[i] = 0
		}
	}
	l.h.sum.Add(l.sum)
	l.sum = 0
}

// Stats returns a point-in-time copy of the histogram. Like Snapshot it
// does not stop writers, so Sum and the bucket counts may be off by
// in-flight observations relative to each other.
func (h *Histogram) Stats() HistStats {
	s := HistStats{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
		if ex := h.exemplars[i].Load(); ex != nil {
			if s.Exemplars == nil {
				s.Exemplars = make([]*Exemplar, len(h.counts))
			}
			s.Exemplars[i] = ex
		}
	}
	return s
}

// HistStats is the snapshot form of a Histogram.
type HistStats struct {
	// Bounds are the finite bucket upper bounds; Counts has one more
	// entry than Bounds, the last being the overflow (+Inf) bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	// Count is the total number of observations (the sum of Counts);
	// Sum is the sum of all observed values.
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	// Exemplars, when non-nil, parallels Counts: entry i is the most
	// recent traced observation that landed in bucket i, nil when the
	// bucket has none. Omitted entirely when no bucket has one.
	Exemplars []*Exemplar `json:"exemplars,omitempty"`
}

// Quantile returns the nearest-rank q-quantile resolved to bucket
// granularity: the upper bound of the bucket holding the rank-⌈q·n⌉
// observation, the same rank rule internal/stats.Quantile applies to
// raw samples. It returns 0 for an empty histogram and +Inf when the
// rank lands in the overflow bucket (the histogram cannot bound it).
func (s HistStats) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i == len(s.Bounds) {
				return math.Inf(1)
			}
			return s.Bounds[i]
		}
	}
	return math.Inf(1)
}
