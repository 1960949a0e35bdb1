// Package obs is a minimal in-process metrics layer: named counters,
// gauges, and histograms with a consistent snapshot API and no external
// dependencies. The hot layers of the reproduction (the simulator, the
// annealer, the graph deltas, the experiment runner) register instruments
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
	"slices"
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

// Registry holds named instruments: counter families, gauges and
// histogram families. A name maps to one instrument of its kind — a
// counter and a counter vec registered under one name are one family,
// and the first registration's shape (keys, bucket bounds) wins. The
// zero value is ready to use; most code uses the package-level default
// registry instead.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*CounterVec
	gauges   map[string]*Gauge
	hists    map[string]*HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// lookup returns m[name], first storing mk() there when it is absent.
func lookup[V any](r *Registry, m *map[string]*V, name string, mk func() *V) *V {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := (*m)[name]
	if !ok {
		v = mk()
		if *m == nil {
			*m = map[string]*V{}
		}
		(*m)[name] = v
	}
	return v
}

// Counter returns the counter with the given name, creating it on first
// use. Repeated calls with the same name return the same instrument.
func (r *Registry) Counter(name string) *Counter { return r.counterFamily(name, nil).With() }

// CounterVec returns the labeled counter family with the given name,
// creating it with the given label keys and the default cardinality cap
// (DefaultMaxSeries) on first use.
func (r *Registry) CounterVec(name string, keys []string) *CounterVec {
	return r.counterFamily(name, vecKeys(name, keys))
}

func (r *Registry) counterFamily(name string, keys []string) *CounterVec {
	return lookup(r, &r.counters, name, func() *CounterVec { return newFamily(name, keys, 0, newCounter) })
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return lookup(r, &r.gauges, name, func() *Gauge { return new(Gauge) })
}

// Histogram returns the fixed-bucket histogram with the given name,
// creating it with the given bucket bounds (finite, strictly
// increasing; an overflow/+Inf bucket is added implicitly) on first
// use. Later calls with the same name return the existing instrument —
// its original bounds win, so register each histogram once.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.histFamily(name, nil, bounds).With()
}

// HistogramVec returns the labeled histogram family with the given
// name, creating it with the given label keys, bucket bounds, and the
// default cardinality cap on first use.
func (r *Registry) HistogramVec(name string, keys []string, bounds []float64) *HistogramVec {
	return r.histFamily(name, vecKeys(name, keys), bounds)
}

func (r *Registry) histFamily(name string, keys []string, bounds []float64) *HistogramVec {
	return lookup(r, &r.hists, name, func() *HistogramVec {
		bounds := slices.Clone(bounds)
		return newFamily(name, keys, 0, func() *Histogram { return newHistogram(bounds) })
	})
}

// Snapshot is a point-in-time copy of every instrument in a registry,
// the unit the -json report embeds.
type Snapshot struct {
	Counters   map[string]int64     `json:"counters,omitempty"`
	Gauges     map[string]int64     `json:"gauges,omitempty"`
	Histograms map[string]HistStats `json:"histograms,omitempty"`
	// LabeledCounters / LabeledHistograms hold the families that declare
	// label keys; each family's series are sorted by label values (see
	// labels.go).
	LabeledCounters   map[string]LabeledCounterStats `json:"labeled_counters,omitempty"`
	LabeledHistograms map[string]LabeledHistStats    `json:"labeled_histograms,omitempty"`
}

// put stores m[k] = v, allocating m on first use so an empty kind stays
// nil (and out of the JSON).
func put[V any](m *map[string]V, k string, v V) {
	if *m == nil {
		*m = map[string]V{}
	}
	(*m)[k] = v
}

// Snapshot copies the current value of every instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	for name, f := range r.counters {
		if len(f.keys) == 0 {
			put(&s.Counters, name, f.With().Value())
		} else {
			put(&s.LabeledCounters, name, labeledCounters(f))
		}
	}
	for name, g := range r.gauges {
		put(&s.Gauges, name, g.Value())
	}
	for name, f := range r.hists {
		if len(f.keys) == 0 {
			put(&s.Histograms, name, f.With().Stats())
		} else {
			put(&s.LabeledHistograms, name, labeledHists(f))
		}
	}
	return s
}

// Reset zeroes every instrument in place. Handles returned earlier stay
// valid, so tests can reset between cases without re-registering.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.counters {
		for _, ch := range f.sorted() {
			ch.inst.v.Store(0)
		}
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, f := range r.hists {
		for _, ch := range f.sorted() {
			resetHistogram(ch.inst)
		}
	}
}

// Format renders the snapshot as aligned "name value" lines grouped by
// instrument kind, in lexical name order — the output of the dwmbench
// -metrics flag.
func (s Snapshot) Format() string {
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "counter %-36s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "gauge   %-36s %d\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		st := s.Histograms[name]
		fmt.Fprintf(&b, "hist    %-36s count=%d sum=%d p50=%s p95=%s max=%s\n",
			name, st.Count, st.Sum,
			formatBound(st.Quantile(0.50)), formatBound(st.Quantile(0.95)), formatBound(st.Quantile(1)))
	}
	for _, name := range sortedKeys(s.LabeledCounters) {
		st := s.LabeledCounters[name]
		for _, ls := range st.Series {
			fmt.Fprintf(&b, "counter %s{%s} %d\n", name, labelPairs(st.Keys, ls.Values), ls.Value)
		}
	}
	for _, name := range sortedKeys(s.LabeledHistograms) {
		st := s.LabeledHistograms[name]
		for _, ls := range st.Series {
			fmt.Fprintf(&b, "hist    %s{%s} count=%d sum=%d p50=%s p95=%s\n",
				name, labelPairs(st.Keys, ls.Values), ls.Hist.Count, ls.Hist.Sum,
				formatBound(ls.Hist.Quantile(0.50)), formatBound(ls.Hist.Quantile(0.95)))
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
