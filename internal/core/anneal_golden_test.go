package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/workload"
)

// annealGoldenCase is one pinned anneal run: a Markov walk of n items
// (32·n accesses, started from Propose) annealed with the given options.
type annealGoldenCase struct {
	n    int
	seed int64
	opts AnnealOptions
	// want is "cost=… placement=… deltas=[…] sum=…": the returned cost,
	// an FNV-64a hash of the returned placement, and the counts and sum
	// this run added to core.anneal.proposal_delta.
	want string
}

// annealGoldenCases cover the regimes of the acceptance test: the hot
// start where most uphill moves pass, the cold tail where nearly all are
// rejected, the 1e-6 temperature floor (InitialTemp 0.01, Cooling 0.5),
// concurrent restart chains, and the frozen cooling schedule: at n = 3 a
// third of the proposals draw u == v, and a skipped proposal that falls
// on a cooling boundary uses up its step without cooling. That case runs
// hot (InitialTemp 100), so cooling on a skip, or not counting a skip as
// a step, changes which uphill moves pass. The strings were recorded from
// the plain Metropolis rule (u < math.Exp(-d/temp) on every uphill move,
// float bucket search, Graph.Row-based SwapDelta, math/rand draws and an
// i%n cooling check); any change to the RNG draw sequence, an accepted
// move or a histogram count shows up here.
var annealGoldenCases = []annealGoldenCase{
	{n: 48, seed: 1, opts: AnnealOptions{Seed: 11, Iterations: 300 * 48}, want: "cost=2108 placement=38bc60dc86c345d3 deltas=[1368 7 57 183 671 1608 3478 6340 404 0 0] sum=17919487"},
	{n: 96, seed: 2, opts: AnnealOptions{Seed: 12, Iterations: 300 * 96}, want: "cost=4418 placement=715af1d55144aae1 deltas=[2827 2 77 214 785 2020 5010 9773 7704 76 0] sum=86211758"},
	{n: 96, seed: 2, opts: AnnealOptions{Seed: 12, Iterations: 300 * 96, Restarts: 3}, want: "cost=4418 placement=715af1d55144aae1 deltas=[8492 5 237 724 2316 6174 15066 29865 22072 489 0] sum=253365139"},
	{n: 160, seed: 3, opts: AnnealOptions{Seed: 13, Iterations: 200 * 160, Restarts: 3}, want: "cost=7263 placement=330840f73b14a5c9 deltas=[13344 0 144 478 1760 4843 11915 25650 33309 3909 0] sum=419875336"},
	{n: 64, seed: 4, opts: AnnealOptions{Seed: 14, Iterations: 100 * 64, InitialTemp: 0.01, Cooling: 0.5}, want: "cost=2873 placement=90695bdf7b39b7f9 deltas=[0 0 0 17 163 312 1029 3539 1243 0 0] sum=15460877"},
	{n: 64, seed: 5, opts: AnnealOptions{Seed: 15, Iterations: 100 * 64, InitialTemp: 1e6}, want: "cost=2865 placement=cc2ef0b415a6fb0b deltas=[3131 0 25 74 297 782 1205 765 25 0 0] sum=50424"},
	{n: 3, seed: 6, opts: AnnealOptions{Seed: 16, Iterations: 300 * 3, InitialTemp: 100}, want: "cost=97 placement=07ae3efa1cdc5f52 deltas=[238 10 0 0 367 0 0 0 0 0 0] sum=10854"},
}

// TestAnnealGolden pins AnnealContext's results and its proposal-delta
// histogram on fixed inputs, so any speed-up of the chain has to keep the
// chain byte-identical.
func TestAnnealGolden(t *testing.T) {
	for _, tc := range annealGoldenCases {
		name := fmt.Sprintf("n=%d/seed=%d/restarts=%d", tc.n, tc.seed, tc.opts.Restarts)
		t.Run(name, func(t *testing.T) {
			got := runAnnealGolden(t, tc)
			if got != tc.want {
				t.Fatalf("anneal drifted:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

func runAnnealGolden(t *testing.T, tc annealGoldenCase) string {
	t.Helper()
	tr := workload.Markov(tc.n, 32*tc.n, tc.seed)
	g, err := graph.FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	start, _, err := Propose(tr, g)
	if err != nil {
		t.Fatal(err)
	}
	before := obsDeltaHist.Stats()
	best, c, err := AnnealContext(context.Background(), g, start, tc.opts)
	if err != nil {
		t.Fatal(err)
	}
	after := obsDeltaHist.Stats()
	deltas := make([]int64, len(after.Counts))
	for i := range deltas {
		deltas[i] = after.Counts[i] - before.Counts[i]
	}
	return fmt.Sprintf("cost=%d placement=%016x deltas=%v sum=%d",
		c, placementHash(best), deltas, after.Sum-before.Sum)
}

func placementHash(p layout.Placement) uint64 {
	h := fnv.New64a()
	for _, s := range p {
		fmt.Fprintf(h, "%d,", s)
	}
	return h.Sum64()
}
