package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/layout"
)

// TestExactDPMatchesBruteForce anchors the subset DP against an
// independent ground truth: full permutation enumeration scored by the
// plain evaluator. (ExactDP is also checked against the branch-and-bound
// oracle in exact_test.go, so all three agree transitively.)
func TestExactDPMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(5) + 2 // 2..6: at most 720 permutations
		g := randGraph(rng, n, 3*n)
		_, opt, err := ExactDP(g)
		if err != nil {
			return false
		}
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		best := int64(-1)
		ok := true
		var rec func(k int)
		rec = func(k int) {
			if !ok {
				return
			}
			if k == n {
				p, err := layout.FromOrder(perm)
				if err != nil {
					ok = false
					return
				}
				c, err := cost.Linear(g, p)
				if err != nil {
					ok = false
					return
				}
				if best < 0 || c < best {
					best = c
				}
				return
			}
			for i := k; i < n; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0)
		return ok && opt == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
