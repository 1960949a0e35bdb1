package stats

import "hash/fnv"

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

// DeriveSeed maps (seed, index) to an independent stream seed: the
// golden-ratio step i·0x9E3779B97F4A7C15 from seed, finalized with
// Mix64, so nearby indices land in unrelated streams. The annealer's
// restart chains and session rounds and the device's per-tape fault
// processes derive their seeds here: statistically independent streams,
// stable across runs and independent of the order they are used in.
func DeriveSeed(seed int64, i int) int64 {
	return int64(Mix64(uint64(seed) + uint64(i)*0x9E3779B97F4A7C15))
}

// DeriveNamedSeed maps (seed, id, row) to an independent stream seed:
// seed ^ FNV-1a(id, row), finalized with Mix64 so nearby rows land in
// unrelated streams. The placement service derives every job's and
// stream's seed here from the request (id "serve/<trace>" or
// "stream/<name>"), which decorrelates service streams from library
// streams that share a user seed; an experiment row that needs its own
// randomness would derive it the same way (id = the experiment ID)
// rather than share one sequential RNG across rows.
func DeriveNamedSeed(seed int64, id string, row int) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(row >> (8 * i))
	}
	h.Write(buf[:])
	return int64(Mix64(uint64(seed) ^ h.Sum64()))
}
