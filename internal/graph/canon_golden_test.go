package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/workload"
)

// canonGoldenSuite pins Canon on the standard suite kernels (seed 1), in
// workload.Suite order: "name fp=… profile=… labeling=…", the labeling
// as an FNV-64a hash of its int32 entries. Persisted placement caches
// are keyed by FP, so a change here orphans every stored entry.
var canonGoldenSuite = []string{
	"fir fp=e712d7dd820c3afa8d3e1853c54732a3 profile=8771abd727d4e630 labeling=046c411eaba57df5",
	"iir fp=514bde6a7ac8df89d28b1f293bdd099c profile=41772535e2c60efc labeling=df1bdb205a66c775",
	"matmul fp=452a5d5647677ffca7277d06a3e58bee profile=b5a1778168d1707f labeling=26f282662ef8b2b5",
	"fft fp=35adf639f4fbf82c6257d597f8205abe profile=c2c73b1cabeaa8de labeling=4b886985663c1d95",
	"sort fp=f0c388ce80725b195a198b33790d78f9 profile=5b64a93d1d6161dd labeling=00fb754f57da1ae5",
	"stencil fp=b5f21795e6711cc88918fec6730c9d31 profile=a041a13e984d78cc labeling=3393a86234545685",
	"histogram fp=1bebb7ef47c901842c7507113213b449 profile=37dbf7380d330995 labeling=3a2d5538560fc5d5",
	"ptrchase fp=c08f3f4816686081f9e8268053bcfc55 profile=96add637661c4f6a labeling=75c84742e5140ea5",
	"crc fp=1bef2d9e83070447bf8b4f08bd603caf profile=dbc033410c3cf703 labeling=ea2e6e04be916f25",
	"zigzag fp=c08f3f4816686081f9e8268053bcfc55 profile=96add637661c4f6a labeling=8971da2bca85e7e5",
	"conv2d fp=7e11c0d594db4451a2ffdeba14da3a05 profile=25869b78ecfeecca labeling=2d0b49cadad171b9",
	"spmv fp=f15482813f389d2a1e2875929203320a profile=38c9803b64a1b4b8 labeling=182cde7753826735",
	"markov fp=f6ee2defa9640d79cba6dbf239fd9a7f profile=528acc2977043bc2 labeling=64ab19bac59f44f5",
	"uniform fp=5e2277116bbe7c0ce829acdd60734438 profile=c1468770336c3b8c labeling=b509a36553092435",
	"zipf fp=9d560fc093b76f0aba3dacee160d2f14 profile=4cc0bc18111d1e50 labeling=bc75f1746c1e4c05",
}

// canonGolden renders one graph's canonical form in the golden's shape.
func canonGolden(g *Graph) string {
	cn := g.Canon()
	h := fnv.New64a()
	var buf [4]byte
	for _, l := range cn.Labeling {
		binary.LittleEndian.PutUint32(buf[:], uint32(l))
		h.Write(buf[:])
	}
	return fmt.Sprintf("fp=%s profile=%016x labeling=%016x", cn.FP, cn.Profile, h.Sum64())
}

// TestCanonGoldenSuite pins FP, Profile and Labeling on the suite
// kernels, so a speed-up of the refinement has to keep every canonical
// form byte-identical.
func TestCanonGoldenSuite(t *testing.T) {
	suite := workload.Suite()
	if len(suite) != len(canonGoldenSuite) {
		t.Fatalf("suite has %d kernels, %d pinned", len(suite), len(canonGoldenSuite))
	}
	for i, gen := range suite {
		want := canonGoldenSuite[i]
		t.Run(gen.Name, func(t *testing.T) {
			g, err := FromTrace(gen.Make(1))
			if err != nil {
				t.Fatal(err)
			}
			if got := gen.Name + " " + canonGolden(g); got != want {
				t.Fatalf("Canon drifted:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// BenchmarkCanon canonicalizes the 15 suite kernels per op. Each op
// builds fresh graphs (outside the timer), so the per-graph memo cannot
// hide the refinement.
func BenchmarkCanon(b *testing.B) {
	suite := workload.Suite()
	edges := make([][]Edge, len(suite))
	ns := make([]int, len(suite))
	for i, gen := range suite {
		g, err := FromTrace(gen.Make(1))
		if err != nil {
			b.Fatal(err)
		}
		edges[i], ns[i] = g.Edges(), g.N()
	}
	gs := make([]*Graph, len(suite))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := range gs {
			g, err := FromEdges(ns[k], edges[k])
			if err != nil {
				b.Fatal(err)
			}
			gs[k] = g
		}
		b.StartTimer()
		for _, g := range gs {
			g.Canon()
		}
	}
}
