package core

import (
	"math/bits"
	"math/rand"
)

// drawLen and drawTap are the lags of math/rand's additive lagged
// Fibonacci generator (rngSource): every output is the sum, mod 2⁶⁴, of
// the outputs 607 and 273 draws back. ringMask+1 is the smallest power
// of two that holds 608 outputs, so ring positions take a mask, not a
// modulus.
const (
	drawLen  = 607
	drawTap  = 273
	ringMask = 1<<10 - 1
)

// drawSource reproduces the Intn(n) and Float64 draws of
// rand.New(rand.NewSource(seed)) for one fixed n, value for value, with
// no interface call and no division per draw. The anneal chain draws
// from it; its draw sequence is the one TestAnnealGolden and the
// committed golden tables pin, and TestDrawSourceMatchesMathRand holds it
// to math/rand.
//
// It is exact by construction. rngSource's state after Seed is not
// exported, and it is not needed: the first 607 Uint64 outputs are taken
// from a real rand.NewSource(seed), and every later output follows
// rngSource's own recurrence x_k = x_{k−607} + x_{k−273} on a ring that
// always holds the next 607. intn and float64 then map those outputs as
// rand.Rand does: Int31n's rejection bound, with v % n computed by
// Lemire's fastmod, exact for every 32-bit v and n (arXiv:1902.01961),
// and Float64's float64(Int63) / 2⁶³ as a multiplication by 2⁻⁶³.
type drawSource struct {
	ring [ringMask + 1]uint64 // outputs t … t+606, output k at k&ringMask
	t    uint                 // index of the next output

	n   uint64 // intn's bound
	max uint64 // largest Int31 that Int31n keeps (its rejection bound)
	m   uint64 // fastmod multiplier ⌊(2⁶⁴−1)/n⌋+1
}

// newDrawSource returns a draw source for rand.NewSource(seed) whose intn
// draws from [0, n). n must lie in [1, 2³¹−1], the range in which
// rand.Rand.Intn uses Int31n.
func newDrawSource(seed int64, n int) *drawSource {
	if n < 1 || n > 1<<31-1 {
		panic("core: draw bound out of range")
	}
	s := &drawSource{n: uint64(n)}
	src := rand.NewSource(seed).(rand.Source64)
	for k := 0; k < drawLen; k++ {
		s.ring[k] = src.Uint64()
	}
	s.max = 1<<31 - 1 - (1<<31)%uint64(n)
	s.m = ^uint64(0)/uint64(n) + 1 // wraps to 0 for n = 1, where every v mod n is 0
	return s
}

// intn is rand.Rand.Intn(n), which for n < 2³¹ is Int31n(n): draw
// Int31 = int32(Int63 >> 32), bits 62…32 of an output, until it is at
// most the rejection bound, then reduce it mod n. Int31n masks instead
// when n is a power of two, but there v & (n−1) = v mod n and its bound
// is 2³¹−1, which rejects nothing, so one path covers both.
func (s *drawSource) intn() int {
	for {
		if v := s.next() << 1 >> 33; v <= s.max {
			hi, _ := bits.Mul64(s.m*v, s.n)
			return int(hi)
		}
	}
}

// float64 is rand.Rand.Float64: float64(Int63) / 2⁶³, drawn again in the
// rare case that the quotient rounds up to 1. Dividing by a power of two
// is exact, so multiplying by 2⁻⁶³ gives the same value.
func (s *drawSource) float64() float64 {
	for {
		if f := float64(s.next()&(1<<63-1)) * 0x1p-63; f != 1 {
			return f
		}
	}
}

// next is rngSource.Uint64: it returns output t and stores output
// t+607 = out[t] + out[t+334] on the ring, at a position no output
// t+1 … t+606 occupies.
func (s *drawSource) next() uint64 {
	t := s.t
	x := s.ring[t&ringMask]
	s.ring[(t+drawLen)&ringMask] = x + s.ring[(t+(drawLen-drawTap))&ringMask]
	s.t = t + 1
	return x
}
