package obs

// BucketOf exposes the bucket lookup to the external tests.
func BucketOf(h *Histogram, v int64) int { return h.bucket(v) }

// SearchOf is BucketOf by binary search, whether or not h has a class
// table: a histogram with h's bounds and no table.
func SearchOf(h *Histogram, v int64) int { return (&Histogram{ibounds: h.ibounds}).bucket(v) }

// HasTable reports whether h looks its buckets up by class.
func HasTable(h *Histogram) bool { return h.table != nil }

// newCounterVec and newHistogramVec build a labeled family with an
// explicit cardinality cap, which the registry's constructors fix at
// DefaultMaxSeries.
func newCounterVec(name string, keys []string, max int) *CounterVec {
	return newFamily(name, vecKeys(name, keys), max, newCounter)
}

func newHistogramVec(name string, keys []string, bounds []float64, max int) *HistogramVec {
	return newFamily(name, vecKeys(name, keys), max, func() *Histogram { return newHistogram(bounds) })
}
