package stats

// Mix64 is the splitmix64 finalizer: a cheap bijection on uint64 with
// full avalanche. It is the one derivation primitive behind every
// deterministic stream in the tree — per-row and per-chain seeds, fault
// schedules, trace IDs, retry jitter and the graph fingerprint — so two
// runs with the same seed draw the same values.
func Mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// FoldSeq absorbs v into the order-dependent running hash h.
func FoldSeq(h, v uint64) uint64 { return Mix64(h*0x100000001B3 + v) }
