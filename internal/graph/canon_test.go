package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// permuteTrace relabels every item of t through perm (a permutation of
// [0, NumItems)), modeling the same workload submitted under a different
// item numbering.
func permuteTrace(t *trace.Trace, perm []int) *trace.Trace {
	out := trace.New(t.Name, t.NumItems)
	for _, a := range t.Accesses {
		if a.Write {
			out.Write(perm[a.Item])
		} else {
			out.Read(perm[a.Item])
		}
	}
	return out
}

func randPerm(rng *rand.Rand, n int) []int { return rng.Perm(n) }

// randomTrace generates a seeded access trace with locality structure
// (hot pairs plus uniform noise) so the transition graph is non-trivial.
func randomTrace(seed int64, items, length int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	t := trace.New("canon-rand", items)
	for i := 0; i < length; i++ {
		var it int
		if rng.Intn(4) == 0 {
			it = rng.Intn(items)
		} else {
			it = rng.Intn(items / 2) // hot half
		}
		if rng.Intn(3) == 0 {
			t.Write(it)
		} else {
			t.Read(it)
		}
	}
	return t
}

// ringGraph is a weight-w cycle over n vertices: vertex-transitive, the
// worst case for plain WL refinement (zero classes split), so it
// exercises the individualization loop.
func ringGraph(t *testing.T, n int, w int64) *Graph {
	t.Helper()
	es := make([]Edge, n)
	for i := range es {
		es[i] = Edge{U: i, V: (i + 1) % n, W: w}
	}
	return mustFromEdges(t, n, es...)
}

// permuteGraph rebuilds g with every vertex u renamed to perm[u].
func permuteGraph(t *testing.T, g *Graph, perm []int) *Graph {
	t.Helper()
	var es []Edge
	for _, e := range g.Edges() {
		es = append(es, Edge{U: perm[e.U], V: perm[e.V], W: e.W})
	}
	return mustFromEdges(t, g.N(), es...)
}

func TestFingerprintPermutationInvariance(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *Graph
	}{
		{"random-trace", func(t *testing.T) *Graph {
			g, err := FromTrace(randomTrace(11, 48, 4000))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"ring-64", func(t *testing.T) *Graph { return ringGraph(t, 64, 3) }},
		{"star", func(t *testing.T) *Graph {
			var es []Edge
			for i := 1; i < 17; i++ {
				es = append(es, Edge{U: 0, V: i, W: int64(1 + i%3)})
			}
			return mustFromEdges(t, 17, es...)
		}},
		{"two-components", func(t *testing.T) *Graph {
			es := []Edge{{5, 6, 7}, {6, 7, 7}, {8, 9, 1}}
			for i := 0; i < 4; i++ {
				es = append(es, Edge{U: i, V: (i + 1) % 5, W: 2})
			}
			return mustFromEdges(t, 10, es...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build(t)
			ref := g.Canon()
			if err := checkLabeling(ref.Labeling, g.N()); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 8; trial++ {
				perm := randPerm(rng, g.N())
				pg := permuteGraph(t, g, perm)
				got := pg.Canon()
				if got.FP != ref.FP {
					t.Fatalf("trial %d: fingerprint changed under renumbering: %s vs %s",
						trial, got.FP, ref.FP)
				}
				if got.Profile != ref.Profile {
					t.Fatalf("trial %d: degree profile changed under renumbering", trial)
				}
				if err := checkLabeling(got.Labeling, pg.N()); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestFingerprintPermutationInvarianceOnTraces(t *testing.T) {
	// The end-to-end property the serve cache depends on: renumbering the
	// items of a trace leaves the transition graph's fingerprint fixed.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		tr := randomTrace(int64(100+trial), 32, 2500)
		g, err := FromTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		ref := g.Canon()
		perm := randPerm(rng, tr.NumItems)
		pg, err := FromTrace(permuteTrace(tr, perm))
		if err != nil {
			t.Fatal(err)
		}
		if got := pg.Canon(); got.FP != ref.FP {
			t.Fatalf("trial %d: trace renumbering changed fingerprint: %s vs %s",
				trial, got.FP, ref.FP)
		}
	}
}

func TestFingerprintDistinguishesStructure(t *testing.T) {
	builds := map[string]func(t *testing.T) *Graph{
		"path-4": func(t *testing.T) *Graph {
			return mustFromEdges(t, 4, Edge{0, 1, 1}, Edge{1, 2, 1}, Edge{2, 3, 1})
		},
		"ring-4":       func(t *testing.T) *Graph { return ringGraph(t, 4, 1) },
		"ring-4-heavy": func(t *testing.T) *Graph { return ringGraph(t, 4, 2) },
		"ring-5":       func(t *testing.T) *Graph { return ringGraph(t, 5, 1) },
		"path-4-weighted": func(t *testing.T) *Graph {
			return mustFromEdges(t, 4, Edge{0, 1, 2}, Edge{1, 2, 1}, Edge{2, 3, 1})
		},
		"star-4": func(t *testing.T) *Graph {
			return mustFromEdges(t, 4, Edge{0, 1, 1}, Edge{0, 2, 1}, Edge{0, 3, 1})
		},
		"rand-a": func(t *testing.T) *Graph {
			g, err := FromTrace(randomTrace(1, 24, 1500))
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"rand-b": func(t *testing.T) *Graph {
			g, err := FromTrace(randomTrace(2, 24, 1500))
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
	}
	fps := make(map[Fingerprint]string)
	for name, build := range builds {
		fp := build(t).Canon().FP
		if prev, dup := fps[fp]; dup {
			t.Errorf("graphs %q and %q share fingerprint %s", name, prev, fp)
		}
		fps[fp] = name
	}
}

func TestCanonDeterministicAcrossBuilds(t *testing.T) {
	// Two independently constructed copies of the same graph — including
	// a different edge insertion order — must agree on everything.
	mk := func(reverse bool) *Canonical {
		es := []Edge{{0, 1, 5}, {1, 2, 3}, {2, 3, 5}, {3, 4, 1}, {4, 5, 9},
			{0, 6, 2}, {6, 7, 2}, {8, 9, 4}, {10, 11, 4}, {9, 10, 1}}
		if reverse {
			rev := make([]Edge, len(es))
			for i, e := range es {
				rev[len(es)-1-i] = Edge{U: e.V, V: e.U, W: e.W}
			}
			es = rev
		}
		return mustFromEdges(t, 12, es...).Canon()
	}
	a, b := mk(false), mk(true)
	if a.FP != b.FP {
		t.Fatalf("insertion order changed fingerprint: %s vs %s", a.FP, b.FP)
	}
	if a.Profile != b.Profile {
		t.Fatal("insertion order changed profile")
	}
	for u, ci := range a.Labeling {
		if b.Labeling[u] != ci {
			t.Fatalf("insertion order changed labeling at vertex %d: %d vs %d", u, ci, b.Labeling[u])
		}
	}
}

// linearCost computes Σ w(u,v)·|p(u)−p(v)| directly; the graph package
// cannot import internal/cost (cost depends on graph).
func linearCost(g *Graph, p []int) int64 {
	var total int64
	for _, e := range g.Edges() {
		d := int64(p[e.U] - p[e.V])
		if d < 0 {
			d = -d
		}
		total += e.W * d
	}
	return total
}

func TestCanonicalPlacementTransportPreservesCost(t *testing.T) {
	// The cache's replay path: a placement found for one numbering,
	// stored in canonical space, and mapped into a renumbered twin's
	// space must have the same linear cost there.
	g, err := FromTrace(randomTrace(99, 40, 3000))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	perm := randPerm(rng, g.N())
	pg := permuteGraph(t, g, perm)
	ca, cb := g.Canon(), pg.Canon()
	if ca.FP != cb.FP {
		t.Fatal("renumbered twin has a different fingerprint; transport undefined")
	}
	p := rng.Perm(g.N()) // arbitrary placement on the original numbering
	// Canonical space: pc[L1[u]] = p[u]; twin space: p2[v] = pc[L2[v]].
	pc := make([]int, g.N())
	for u, slot := range p {
		pc[ca.Labeling[u]] = slot
	}
	p2 := make([]int, pg.N())
	for v := range p2 {
		p2[v] = pc[cb.Labeling[v]]
	}
	if got, want := linearCost(pg, p2), linearCost(g, p); got != want {
		t.Fatalf("transported placement cost %d, want %d", got, want)
	}
}

func TestFingerprintString(t *testing.T) {
	s := Fingerprint{0x1, 0xAB}.String()
	if len(s) != 32 {
		t.Fatalf("String() length %d, want 32", len(s))
	}
	if s != "000000000000000100000000000000ab" {
		t.Fatalf("String() = %q", s)
	}
}

func TestCanonMemoized(t *testing.T) {
	c := ringGraph(t, 8, 1)
	if a, b := c.Canon(), c.Canon(); a != b {
		t.Fatal("Canon() rebuilt instead of returning the memo")
	}
}

// checkLabeling validates that a labeling is a permutation of [0, n),
// the invariant decanonicalization relies on.
func checkLabeling(labeling []int32, n int) error {
	if len(labeling) != n {
		return fmt.Errorf("graph: labeling covers %d vertices, want %d", len(labeling), n)
	}
	seen := make([]bool, n)
	for u, ci := range labeling {
		if ci < 0 || int(ci) >= n || seen[ci] {
			return fmt.Errorf("graph: labeling is not a permutation at vertex %d -> %d", u, ci)
		}
		seen[ci] = true
	}
	return nil
}
