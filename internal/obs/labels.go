package obs

// Instrument families. Every counter and histogram lives in a family: a
// set of instruments of one kind keyed by a small, declared label set —
// tenant, policy, outcome — the per-tenant attribution the serving layer
// stamps on every request. An unlabeled instrument is a family with zero
// keys and exactly one child, which Registry.Counter and
// Registry.Histogram return; CounterVec and HistogramVec are the same
// generic family over Counter and Histogram.
//
// Cardinality is bounded by construction: each family caps its distinct
// label combinations (default 64), and once the cap is reached new
// combinations collapse into one overflow child whose every label value
// is OverflowLabel. A hostile or merely unbounded label source
// (user-chosen tenant names, say) can therefore never grow the
// exposition without limit; the overflow child keeps the totals honest
// while the interesting series stay per-value. cmd/promlint's
// cardinality check is the matching scrape-side gate.
//
// Label KEYS are declared once at registration and must be legal
// Prometheus label names; label VALUES are arbitrary strings, escaped
// at exposition time. The child lookup is one mutex-guarded map probe;
// hot paths that care hold on to the returned *Counter / *Histogram.

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"sync"
)

// OverflowLabel is the label value every series beyond a family's
// cardinality cap collapses into.
const OverflowLabel = "_other"

// DefaultMaxSeries is the per-family cardinality cap the registry's
// constructors apply.
const DefaultMaxSeries = 64

// labelKeyRE is the Prometheus label-name grammar (no leading "__",
// which is reserved for internal use).
var labelKeyRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// family is a set of instruments of one kind over a fixed label set.
// Obtain one from a Registry; the zero value is unusable.
type family[T any] struct {
	name    string
	keys    []string
	max     int
	newInst func() *T

	mu       sync.Mutex
	children map[string]*child[T] //dwmlint:guard mu
}

type child[T any] struct {
	values []string
	inst   *T
}

// CounterVec is a family of counters over a fixed label set.
type CounterVec = family[Counter]

// HistogramVec is a family of fixed-bucket histograms over a fixed label
// set; every child shares the family's bucket bounds.
type HistogramVec = family[Histogram]

func newCounter() *Counter { return new(Counter) }

// newFamily validates the label keys and returns an empty family capped
// at max combinations (DefaultMaxSeries when max <= 0). A zero-key
// family gets its one child at once, so an unlabeled instrument is
// always in the snapshot.
func newFamily[T any](name string, keys []string, max int, newInst func() *T) *family[T] {
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		// Label sets are declared by code, not data, so a malformed or
		// reserved key is a programming error on the same footing as
		// malformed histogram bounds.
		if !labelKeyRE.MatchString(k) || strings.HasPrefix(k, "__") {
			panic(fmt.Sprintf("obs: vec %q has invalid label key %q", name, k))
		}
		if seen[k] {
			panic(fmt.Sprintf("obs: vec %q repeats label key %q", name, k))
		}
		seen[k] = true
	}
	if max <= 0 {
		max = DefaultMaxSeries
	}
	f := &family[T]{name: name, keys: slices.Clone(keys), max: max, newInst: newInst, children: map[string]*child[T]{}}
	if len(keys) == 0 {
		f.With()
	}
	return f
}

// vecKeys rejects an empty key set for the labeled constructors: a vec
// without labels is a plain Counter or Histogram.
func vecKeys(name string, keys []string) []string {
	if len(keys) == 0 {
		panic(fmt.Sprintf("obs: vec %q declares no label keys", name))
	}
	return keys
}

// With returns the instrument for the given label values (one per
// declared key, in declaration order), creating it on first use. Once
// the family holds max distinct combinations, unseen combinations all
// map to the overflow child, which may push the map one past max — the
// cap bounds real combinations, and the overflow series must always
// exist to absorb them. The returned instrument is valid forever; hot
// callers should keep it.
func (f *family[T]) With(values ...string) *T {
	if len(values) != len(f.keys) {
		panic(fmt.Sprintf("obs: vec %q wants %d label values, got %d", f.name, len(f.keys), len(values)))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := childKey(values)
	ch, ok := f.children[key]
	if !ok && len(f.children) >= f.max {
		values = make([]string, len(f.keys))
		for i := range values {
			values[i] = OverflowLabel
		}
		key = childKey(values)
		ch, ok = f.children[key]
	}
	if !ok {
		ch = &child[T]{values: slices.Clone(values), inst: f.newInst()}
		f.children[key] = ch
	}
	return ch.inst
}

// childKey serializes label values into a map key. \xff cannot appear
// in the middle of a UTF-8 rune, so values cannot alias across the
// separator.
func childKey(values []string) string {
	return strings.Join(values, "\xff")
}

// sorted returns the family's children ordered lexically by their
// label-value vectors — the deterministic order of the snapshot and the
// exposition. A child's values never change once created.
func (f *family[T]) sorted() []*child[T] {
	f.mu.Lock()
	out := make([]*child[T], 0, len(f.children))
	for _, ch := range f.children {
		//dwmlint:ignore maporder the sort below restores the deterministic label-value order
		out = append(out, ch)
	}
	f.mu.Unlock()
	slices.SortFunc(out, func(a, b *child[T]) int { return slices.Compare(a.values, b.values) })
	return out
}

// LabeledCounterStats is the snapshot form of a CounterVec: the declared
// keys and every series, sorted by label values.
type LabeledCounterStats struct {
	Keys   []string        `json:"keys"`
	Series []LabeledSample `json:"series"`
}

// LabeledSample is one labeled counter series.
type LabeledSample struct {
	Values []string `json:"values"`
	Value  int64    `json:"value"`
}

// LabeledHistStats is the snapshot form of a HistogramVec.
type LabeledHistStats struct {
	Keys   []string            `json:"keys"`
	Series []LabeledHistSample `json:"series"`
}

// LabeledHistSample is one labeled histogram series.
type LabeledHistSample struct {
	Values []string  `json:"values"`
	Hist   HistStats `json:"hist"`
}

// labeledCounters copies a counter family's series.
func labeledCounters(f *CounterVec) LabeledCounterStats {
	s := LabeledCounterStats{Keys: slices.Clone(f.keys)}
	for _, ch := range f.sorted() {
		s.Series = append(s.Series, LabeledSample{Values: slices.Clone(ch.values), Value: ch.inst.Value()})
	}
	return s
}

// labeledHists copies a histogram family's series.
func labeledHists(f *HistogramVec) LabeledHistStats {
	s := LabeledHistStats{Keys: slices.Clone(f.keys)}
	for _, ch := range f.sorted() {
		s.Series = append(s.Series, LabeledHistSample{Values: slices.Clone(ch.values), Hist: ch.inst.Stats()})
	}
	return s
}

// labelPairs renders a label set body ("k1=v1,k2=v2" style with escaped
// quoted values) in declared key order, for the exposition writer.
func labelPairs(keys, values []string) string {
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		// Quote by hand: escapeLabelValue already produced the exact
		// escape sequences the text format wants, which %q would mangle.
		fmt.Fprintf(&b, "%s=\"%s\"", k, escapeLabelValue(values[i]))
	}
	return b.String()
}
