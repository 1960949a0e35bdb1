package obs

// BucketOf exposes the integer bucket search to the external tests.
func BucketOf(h *Histogram, v int64) int { return h.bucket(v) }
