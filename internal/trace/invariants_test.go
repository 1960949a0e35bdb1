package trace_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/trace"
)

// Property: sum of frequencies equals trace length; the transition
// counts, read from the graph graph.FromTrace builds, sum to at most
// Len-1.
func TestFrequencyTransitionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		tr := trace.New("p", n)
		for i := 0; i < 300; i++ {
			tr.Read(rng.Intn(n))
		}
		var fs int64
		for _, c := range tr.Frequencies() {
			fs += c
		}
		if fs != int64(tr.Len()) {
			return false
		}
		g, err := graph.FromTrace(tr)
		return err == nil && g.TotalWeight() <= int64(tr.Len()-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
