package core

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/trace"
	"repro/internal/workload"
)

// proposeGoldenCase is one pinned Propose run; want is "cost=…
// placement=…", the returned cost and an FNV-64a hash of the returned
// placement.
type proposeGoldenCase struct {
	name string
	make func() *trace.Trace
	want string
}

// proposeGoldenCases are four Zipf and four phased traces shaped like the
// benchmark's offline-dense inputs (8192 accesses, skew 1.3, four phases,
// n spanning the same ranges), where Insertion's relocation search did
// most of Propose's work. These strings and proposeGoldenSuite's were
// recorded from the brute-force Insertion (apply, full LinearCSR re-cost,
// undo per candidate).
var proposeGoldenCases = []proposeGoldenCase{
	{name: "zipf-96", make: func() *trace.Trace { return workload.Zipf(96, 8192, 1.3, 101) }, want: "cost=71388 placement=d5d41e5caf423e9b"},
	{name: "zipf-117", make: func() *trace.Trace { return workload.Zipf(117, 8192, 1.3, 102) }, want: "cost=80514 placement=0e8696accaa5e725"},
	{name: "zipf-139", make: func() *trace.Trace { return workload.Zipf(139, 8192, 1.3, 103) }, want: "cost=90836 placement=e1cc1c9ac7015b1e"},
	{name: "zipf-160", make: func() *trace.Trace { return workload.Zipf(160, 8192, 1.3, 104) }, want: "cost=96059 placement=64f94454dc30b461"},
	{name: "phased-64", make: func() *trace.Trace { return workload.Phased(64, 8192, 4, 1.3, 201) }, want: "cost=69123 placement=49cd7a9827788f59"},
	{name: "phased-80", make: func() *trace.Trace { return workload.Phased(80, 8192, 4, 1.3, 202) }, want: "cost=81644 placement=42dad4d4c9684c95"},
	{name: "phased-96", make: func() *trace.Trace { return workload.Phased(96, 8192, 4, 1.3, 203) }, want: "cost=92377 placement=b729da31ab44b35d"},
	{name: "phased-112", make: func() *trace.Trace { return workload.Phased(112, 8192, 4, 1.3, 204) }, want: "cost=99654 placement=e4de3d0852abcf93"},
}

// proposeGoldenSuite pins the standard suite kernels (seed 1), in
// workload.Suite order.
var proposeGoldenSuite = []string{
	"fir cost=63485 placement=6093233056d5ed31",
	"iir cost=52733 placement=5c8e1cd76fdac94f",
	"matmul cost=5874 placement=3f2db91948f438d3",
	"fft cost=15783 placement=d2d95319b3e0f21d",
	"sort cost=2272 placement=f64e13bd073ee081",
	"stencil cost=17921 placement=3f0174daaab273fb",
	"histogram cost=71448 placement=ab35823306deb903",
	"ptrchase cost=8001 placement=c41130a45e2da769",
	"crc cost=40013 placement=42129e9919406f7d",
	"zigzag cost=8001 placement=21fe9d27da19bf8d",
	"conv2d cost=32179 placement=0f82a2e4e6f67611",
	"spmv cost=100584 placement=de238b2fb78f248f",
	"markov cost=11509 placement=c41130a45e2da769",
	"uniform cost=158233 placement=a2329b3aa3a655d5",
	"zipf cost=52361 placement=1b3b6e07c7b59fa1",
}

// TestProposeGolden pins Propose's cost and placement on fixed inputs, so
// a speed-up of any refinement stage has to keep Propose byte-identical.
func TestProposeGolden(t *testing.T) {
	for _, tc := range proposeGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := runProposeGolden(t, tc.make()); got != tc.want {
				t.Fatalf("Propose drifted:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
	suite := workload.Suite()
	if len(suite) != len(proposeGoldenSuite) {
		t.Fatalf("suite has %d kernels, %d pinned", len(suite), len(proposeGoldenSuite))
	}
	for i, gen := range suite {
		want := proposeGoldenSuite[i]
		t.Run(gen.Name, func(t *testing.T) {
			if got := gen.Name + " " + runProposeGolden(t, gen.Make(1)); got != want {
				t.Fatalf("Propose drifted:\n got %s\nwant %s", got, want)
			}
		})
	}
}

func runProposeGolden(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	g, err := graph.FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	p, c, err := Propose(tr, g)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("cost=%d placement=%016x", c, placementHash(p))
}
