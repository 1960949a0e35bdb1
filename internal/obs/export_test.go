package obs

// BucketOf exposes the integer bucket search to the external tests.
func BucketOf(h *Histogram, v int64) int { return h.bucket(v) }

// newCounterVec and newHistogramVec build a labeled family with an
// explicit cardinality cap, which the registry's constructors fix at
// DefaultMaxSeries.
func newCounterVec(name string, keys []string, max int) *CounterVec {
	return newFamily(name, vecKeys(name, keys), max, newCounter)
}

func newHistogramVec(name string, keys []string, bounds []float64, max int) *HistogramVec {
	return newFamily(name, vecKeys(name, keys), max, func() *Histogram { return newHistogram(bounds) })
}
