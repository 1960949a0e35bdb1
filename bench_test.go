package repro_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dwm"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/workload"
)

// One benchmark per reconstructed table/figure. Each iteration runs the
// full experiment, so these measure end-to-end harness cost and double as
// regression smoke tests (`go test -bench=. -benchmem`).

func benchExperiment(b *testing.B, run func(bench.Config) (*bench.Table, error)) {
	b.Helper()
	cfg := bench.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE1Characteristics(b *testing.B) { benchExperiment(b, bench.E1Characteristics) }
func BenchmarkE2MainComparison(b *testing.B)  { benchExperiment(b, bench.E2MainComparison) }
func BenchmarkE3TapeLength(b *testing.B)      { benchExperiment(b, bench.E3TapeLength) }
func BenchmarkE4Ports(b *testing.B)           { benchExperiment(b, bench.E4Ports) }
func BenchmarkE5OptimalityGap(b *testing.B)   { benchExperiment(b, bench.E5OptimalityGap) }
func BenchmarkE6LatencyEnergy(b *testing.B)   { benchExperiment(b, bench.E6LatencyEnergy) }
func BenchmarkE7MultiTape(b *testing.B)       { benchExperiment(b, bench.E7MultiTape) }
func BenchmarkE8Runtime(b *testing.B)         { benchExperiment(b, bench.E8Runtime) }
func BenchmarkE9Ablation(b *testing.B)        { benchExperiment(b, bench.E9Ablation) }
func BenchmarkE10Adaptive(b *testing.B)       { benchExperiment(b, bench.E10Adaptive) }
func BenchmarkE11CacheFilter(b *testing.B)    { benchExperiment(b, bench.E11CacheFilter) }
func BenchmarkE12Robustness(b *testing.B)     { benchExperiment(b, bench.E12Robustness) }
func BenchmarkE13WearLeveling(b *testing.B)   { benchExperiment(b, bench.E13WearLeveling) }
func BenchmarkE14Granularity(b *testing.B)    { benchExperiment(b, bench.E14Granularity) }
func BenchmarkE15TailLatency(b *testing.B)    { benchExperiment(b, bench.E15TailLatency) }
func BenchmarkE16PortPlacement(b *testing.B)  { benchExperiment(b, bench.E16PortPlacement) }
func BenchmarkE17Variation(b *testing.B)      { benchExperiment(b, bench.E17Variation) }
func BenchmarkE18ShiftFaults(b *testing.B)    { benchExperiment(b, bench.E18ShiftFaults) }
func BenchmarkE19Interleaving(b *testing.B)   { benchExperiment(b, bench.E19Interleaving) }
func BenchmarkE20Instruction(b *testing.B)    { benchExperiment(b, bench.E20Instruction) }
func BenchmarkE21Scheduling(b *testing.B)     { benchExperiment(b, bench.E21Scheduling) }
func BenchmarkE22Profile(b *testing.B)        { benchExperiment(b, bench.E22Profile) }

// Micro-benchmarks for the hot paths behind the experiments.

func BenchmarkGreedyChain(b *testing.B) {
	tr := workload.Zipf(256, 8192, 1.2, 1)
	g, err := graph.FromTrace(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyChain(g, core.SeedHeaviestEdge); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoOptFull(b *testing.B) {
	tr := workload.Zipf(128, 4096, 1.2, 1)
	g, err := graph.FromTrace(tr)
	if err != nil {
		b.Fatal(err)
	}
	start, err := core.GreedyChain(g, core.SeedHeaviestEdge)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.TwoOpt(g, start, core.TwoOptOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactDP12(b *testing.B) {
	tr := workload.Zipf(12, 3000, 1.2, 1)
	g, err := graph.FromTrace(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.ExactDP(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorRun(b *testing.B) {
	tr := workload.FIR(32, 64)
	geom := dwm.Geometry{Tapes: 1, DomainsPerTape: tr.NumItems, PortsPerTape: 1}
	p := layout.Identity(tr.NumItems)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev, err := dwm.NewDevice(geom, dwm.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		s, err := sim.NewSingleTape(dev, p, sim.HeadStay)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProposePipeline(b *testing.B) {
	tr := workload.FIR(32, 128)
	g, err := graph.FromTrace(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Propose(tr, g); err != nil {
			b.Fatal(err)
		}
	}
}
