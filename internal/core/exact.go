package core

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/layout"
)

// MaxExactN bounds the instance size accepted by the exact algorithms.
// The subset DP uses O(2^n) memory (8 bytes of cost plus 1 byte of parent
// per subset), so 24 vertices ≈ 150 MB is the practical ceiling.
const MaxExactN = 24

// ExactDP computes an optimal MinLA placement by subset dynamic
// programming over arrangement prefixes.
//
// It exploits the cut formulation of MinLA: for a left-to-right
// arrangement with prefix sets S_1 ⊂ S_2 ⊂ … ⊂ S_n, the objective equals
// Σ_t cut(S_t, V∖S_t), because an edge at arrangement distance d crosses
// exactly d prefix boundaries. The cut value depends only on the set, not
// on the order within it, so dp[S] = min over v∈S of dp[S∖{v}] + cut(S)
// solves the problem in O(2^n · n) time after an O(2^n · deg) incremental
// cut table.
func ExactDP(g *graph.Graph) (layout.Placement, int64, error) {
	n := g.N()
	if n > MaxExactN {
		return nil, 0, fmt.Errorf("core: ExactDP limited to %d vertices, got %d", MaxExactN, n)
	}
	size := 1 << uint(n)

	// deg[v] = weighted degree; adj[v] = packed neighbor list, both read
	// straight off the graph's CSR rows.
	type arc struct {
		to int
		w  int64
	}
	adj := make([][]arc, n)
	degW := make([]int64, n)
	for v := 0; v < n; v++ {
		cols, ws := g.Row(v)
		adj[v] = make([]arc, len(cols))
		for i, u := range cols {
			adj[v][i] = arc{int(u), ws[i]}
		}
		degW[v] = g.WeightedDegree(v)
	}

	// cut[S] built incrementally by removing the lowest set bit:
	// cut(S) = cut(S∖{v}) + deg(v) − 2·w(v, S∖{v}).
	cut := make([]int64, size)
	for s := 1; s < size; s++ {
		v := bits.TrailingZeros(uint(s))
		rest := s &^ (1 << uint(v))
		var toRest int64
		for _, a := range adj[v] {
			if rest&(1<<uint(a.to)) != 0 {
				toRest += a.w
			}
		}
		cut[s] = cut[rest] + degW[v] - 2*toRest
	}

	const inf = math.MaxInt64 / 4
	dp := make([]int64, size)
	parent := make([]int8, size) // vertex appended last to reach S
	for s := 1; s < size; s++ {
		dp[s] = inf
		for t := s; t != 0; t &= t - 1 {
			v := bits.TrailingZeros(uint(t))
			if c := dp[s&^(1<<uint(v))] + cut[s]; c < dp[s] {
				dp[s] = c
				parent[s] = int8(v)
			}
		}
	}

	// Reconstruct: parent[S] is the vertex at position |S|-1.
	order := make([]int, n)
	s := size - 1
	for i := n - 1; i >= 0; i-- {
		v := int(parent[s])
		order[i] = v
		s &^= 1 << uint(v)
	}
	p, err := layout.FromOrder(order)
	if err != nil {
		return nil, 0, err
	}
	return p, dp[size-1], nil
}
