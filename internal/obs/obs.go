// Package obs is a minimal in-process metrics layer: named counters,
// gauges, and histograms with a consistent snapshot API and no external
// dependencies. The hot layers of the reproduction (the simulator, the
// annealer, the CSR cache, the experiment runner) register instruments
// once at package init and update them with single atomic operations, so
// instrumentation is cheap enough to leave on unconditionally.
//
// All instruments are safe for concurrent use. Snapshot copies the
// current values without stopping writers, so a snapshot taken while a
// run is in flight is a consistent-enough point-in-time view, not a
// barrier.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored so the counter stays monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can move in both directions.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry holds named instruments. The zero value is ready to use; most
// code uses the package-level default registry instead.
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	hists       map[string]*Histogram
	counterVecs map[string]*CounterVec
	histVecs    map[string]*HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the counter with the given name, creating it on first
// use. Repeated calls with the same name return the same instrument.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = map[string]*Counter{}
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = map[string]*Gauge{}
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the fixed-bucket histogram with the given name,
// creating it with the given bucket bounds (finite, strictly
// increasing; an overflow/+Inf bucket is added implicitly) on first
// use. Later calls with the same name return the existing instrument —
// its original bounds win, so register each histogram once.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = map[string]*Histogram{}
	}
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// CounterVec returns the labeled counter family with the given name,
// creating it with the given label keys and the default cardinality cap
// (DefaultMaxSeries) on first use. Like Histogram, the first
// registration's shape wins.
func (r *Registry) CounterVec(name string, keys []string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counterVecs == nil {
		r.counterVecs = map[string]*CounterVec{}
	}
	v, ok := r.counterVecs[name]
	if !ok {
		v = newCounterVec(name, keys, 0)
		r.counterVecs[name] = v
	}
	return v
}

// HistogramVec returns the labeled histogram family with the given
// name, creating it with the given label keys, bucket bounds, and the
// default cardinality cap on first use.
func (r *Registry) HistogramVec(name string, keys []string, bounds []float64) *HistogramVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.histVecs == nil {
		r.histVecs = map[string]*HistogramVec{}
	}
	v, ok := r.histVecs[name]
	if !ok {
		v = newHistogramVec(name, keys, bounds, 0)
		r.histVecs[name] = v
	}
	return v
}

// Snapshot is a point-in-time copy of every instrument in a registry,
// the unit the -json report embeds.
type Snapshot struct {
	Counters   map[string]int64     `json:"counters,omitempty"`
	Gauges     map[string]int64     `json:"gauges,omitempty"`
	Histograms map[string]HistStats `json:"histograms,omitempty"`
	// LabeledCounters / LabeledHistograms hold the vec families; each
	// family's series are sorted by label values (see labels.go).
	LabeledCounters   map[string]LabeledCounterStats `json:"labeled_counters,omitempty"`
	LabeledHistograms map[string]LabeledHistStats    `json:"labeled_histograms,omitempty"`
}

// Snapshot copies the current value of every instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistStats, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Stats()
		}
	}
	if len(r.counterVecs) > 0 {
		s.LabeledCounters = make(map[string]LabeledCounterStats, len(r.counterVecs))
		for name, v := range r.counterVecs {
			s.LabeledCounters[name] = v.snapshot()
		}
	}
	if len(r.histVecs) > 0 {
		s.LabeledHistograms = make(map[string]LabeledHistStats, len(r.histVecs))
		for name, v := range r.histVecs {
			s.LabeledHistograms[name] = v.snapshot()
		}
	}
	return s
}

// Reset zeroes every instrument in place. Handles returned earlier stay
// valid, so tests can reset between cases without re-registering.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		resetHistogram(h)
	}
	for _, v := range r.counterVecs {
		v.reset()
	}
	for _, v := range r.histVecs {
		v.reset()
	}
}

// Format renders the snapshot as aligned "name value" lines grouped by
// instrument kind, in lexical name order — the output of the dwmbench
// -metrics flag.
func (s Snapshot) Format() string {
	var b strings.Builder
	writeSorted := func(kind string, m map[string]int64) {
		if len(m) == 0 {
			return
		}
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "%s %-36s %d\n", kind, name, m[name])
		}
	}
	writeSorted("counter", s.Counters)
	writeSorted("gauge  ", s.Gauges)
	if len(s.Histograms) > 0 {
		names := make([]string, 0, len(s.Histograms))
		for name := range s.Histograms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := s.Histograms[name]
			fmt.Fprintf(&b, "hist    %-36s count=%d sum=%d p50=%s p95=%s max=%s\n",
				name, st.Count, st.Sum,
				formatBound(st.Quantile(0.50)), formatBound(st.Quantile(0.95)), formatBound(st.Quantile(1)))
		}
	}
	if len(s.LabeledCounters) > 0 {
		names := make([]string, 0, len(s.LabeledCounters))
		for name := range s.LabeledCounters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := s.LabeledCounters[name]
			for _, ls := range st.Series {
				fmt.Fprintf(&b, "counter %s{%s} %d\n", name, labelPairs(st.Keys, ls.Values), ls.Value)
			}
		}
	}
	if len(s.LabeledHistograms) > 0 {
		names := make([]string, 0, len(s.LabeledHistograms))
		for name := range s.LabeledHistograms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := s.LabeledHistograms[name]
			for _, ls := range st.Series {
				fmt.Fprintf(&b, "hist    %s{%s} count=%d sum=%d p50=%s p95=%s\n",
					name, labelPairs(st.Keys, ls.Values), ls.Hist.Count, ls.Hist.Sum,
					formatBound(ls.Hist.Quantile(0.50)), formatBound(ls.Hist.Quantile(0.95)))
			}
		}
	}
	return b.String()
}

// formatBound renders a bucket bound for the text snapshot: "le2" style
// ("at most this bucket bound"), with the overflow bucket as ">max".
func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return ">max"
	}
	return "le" + strconv.FormatFloat(b, 'g', -1, 64)
}

// defaultRegistry is the process-wide registry the instrumented layers
// use.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// GetCounter returns a counter from the default registry.
func GetCounter(name string) *Counter { return defaultRegistry.Counter(name) }

// GetGauge returns a gauge from the default registry.
func GetGauge(name string) *Gauge { return defaultRegistry.Gauge(name) }

// GetHistogram returns a histogram from the default registry, creating
// it with the given bucket bounds on first use (see Registry.Histogram).
func GetHistogram(name string, bounds []float64) *Histogram {
	return defaultRegistry.Histogram(name, bounds)
}

// GetCounterVec returns a labeled counter family from the default
// registry (see Registry.CounterVec).
func GetCounterVec(name string, keys []string) *CounterVec {
	return defaultRegistry.CounterVec(name, keys)
}

// GetHistogramVec returns a labeled histogram family from the default
// registry (see Registry.HistogramVec).
func GetHistogramVec(name string, keys []string, bounds []float64) *HistogramVec {
	return defaultRegistry.HistogramVec(name, keys, bounds)
}

// Take returns a snapshot of the default registry.
func Take() Snapshot { return defaultRegistry.Snapshot() }
