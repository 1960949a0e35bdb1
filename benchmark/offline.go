package main

// The offline workloads drive the library path: one caller, closed loop,
// each placement running decode → FromTrace → Freeze → Propose → Anneal
// and then the two output checks (cost.Linear and the device simulator).

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dwm"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/trace"
)

// placement is the outcome of one offline placement.
type placement struct {
	ms   float64
	cost int64
	err  error
}

// preparedInput is an offline input plus the two reference costs of
// shift_ratio and core.program_order_ratio.
type preparedInput struct {
	offlineInput
	random  float64
	program int64
}

// prepareOffline generates the pool and costs the reference layouts of
// every input. It is the offline workloads' set-up.
func prepareOffline(s spec, seed int64, pool int) ([]preparedInput, error) {
	ins, err := offlineInputs(s, seed, pool)
	if err != nil {
		return nil, err
	}
	out := make([]preparedInput, len(ins))
	for i, in := range ins {
		tr, err := trace.Decode(bytes.NewReader(in.Text))
		if err != nil {
			return nil, err
		}
		g, err := graph.FromTrace(tr)
		if err != nil {
			return nil, err
		}
		po, err := core.ProgramOrder(tr)
		if err != nil {
			return nil, err
		}
		c, err := cost.Linear(g, po)
		if err != nil {
			return nil, err
		}
		out[i] = preparedInput{offlineInput: in, random: randomLayoutCost(g), program: c}
	}
	return out, nil
}

// placeOne runs the library chain on one input and checks its output.
// With a recorder it records a "place" span and one child per layer call.
func placeOne(ctx context.Context, in preparedInput, rec *recorder) placement {
	root := rec.newID()
	t0 := now()
	start := rec.clock()
	step := func(name string, t int64) int64 {
		rec.end(spanRecord{Name: name, Parent: root, Start: t})
		return rec.clock()
	}
	var res placement
	fail := func(err error) placement {
		res.err = fmt.Errorf("%s: %w", in.Name, err)
		return res
	}

	t := start
	tr, err := trace.Decode(bytes.NewReader(in.Text))
	if err != nil {
		return fail(err)
	}
	t = step("trace.decode", t)
	g, err := graph.FromTrace(tr)
	if err != nil {
		return fail(err)
	}
	t = step("graph.build", t)
	g.Freeze()
	t = step("graph.freeze", t)
	p, _, err := core.Propose(tr, g)
	if err != nil {
		return fail(err)
	}
	t = step("core.propose", t)
	best, c, err := core.AnnealContext(ctx, g, p, core.AnnealOptions{Seed: in.Seed, Iterations: in.Iters})
	if err != nil {
		return fail(err)
	}
	rec.end(spanRecord{Name: "core.anneal", Parent: root, Start: t, Size: int64(in.proposals())})
	t = rec.clock()
	res.cost = c
	if err := checkPlacement(best, in.N); err != nil {
		return fail(err)
	}
	lin, err := cost.Linear(g, best)
	if err != nil {
		return fail(err)
	}
	t = step("cost.linear", t)
	if lin != c {
		return fail(fmt.Errorf("cost.Linear = %d, anneal returned %d", lin, c))
	}
	shifts, err := simulate(tr, best)
	if err != nil {
		return fail(err)
	}
	rec.end(spanRecord{Name: "sim.run", Parent: root, Start: t, Size: int64(tr.Len())})
	// The simulated head starts at the port, so the device shifts exactly
	// the Linear cost plus one initial seek shorter than the tape.
	if seek := shifts - lin; seek < 0 || seek >= int64(in.N) {
		return fail(fmt.Errorf("simulated %d shifts for Linear cost %d: seek %d outside [0,%d)", shifts, lin, seek, in.N))
	}
	res.ms = ms(now().Sub(t0))
	rec.end(spanRecord{ID: root, Name: "place", Start: start})
	return res
}

// checkPlacement verifies p is a permutation of [0, n).
func checkPlacement(p []int, n int) error {
	if len(p) != n {
		return fmt.Errorf("placement covers %d items, want %d", len(p), n)
	}
	return layout.Placement(p).Validate(n)
}

// simulate serves the trace on a one-tape, one-port device sized to the
// placement and returns the shifts it issued.
func simulate(tr *trace.Trace, p layout.Placement) (int64, error) {
	dev, err := dwm.NewDevice(dwm.Geometry{Tapes: 1, DomainsPerTape: len(p), PortsPerTape: 1}, dwm.DefaultParams())
	if err != nil {
		return 0, err
	}
	s, err := sim.NewSingleTape(dev, p, sim.HeadStay)
	if err != nil {
		return 0, err
	}
	r, err := s.Run(tr)
	if err != nil {
		return 0, err
	}
	return r.Counters.Shifts, nil
}

// runOffline measures one offline workload. The timed loop places the
// whole pool in passes until cfg.Seconds have elapsed, so every run places
// the same size mix. A traced run places each input twice in a row, once
// traced and once not (alternating which goes first), and reports the
// per-layer metrics of the traced half and the time difference as tracing
// overhead.
func runOffline(ctx context.Context, s spec, cfg config) (*result, error) {
	pool := s.Pool
	if cfg.Pool > 0 {
		pool = cfg.Pool
	}
	var ins []preparedInput
	setups, err := repeatSetup(cfg, func() (err error) {
		ins, err = prepareOffline(s, cfg.Seed, pool)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: s.Name}
	if w := placeOne(ctx, ins[0], nil); w.err != nil {
		res.fail(w.err)
	}

	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	heap := startHeapSampler()
	obsBefore, memBefore := takeObs(), readMem()
	var lat []float64
	var pairs [][2]float64 // traced, untraced
	q := make(quality, len(ins))
	best := make(fastest, len(ins))
	placed := 0
	start := now()
	for pass := 0; ; pass++ {
		for k, in := range ins {
			var outs []placement
			if !cfg.Trace {
				outs = []placement{placeOne(ctx, in, nil)}
			} else if (pass+k)%2 == 0 {
				outs = []placement{placeOne(ctx, in, rec), placeOne(ctx, in, nil)}
			} else {
				u := placeOne(ctx, in, nil)
				outs = []placement{placeOne(ctx, in, rec), u}
			}
			ok := true
			for _, o := range outs {
				placed++
				if o.err != nil {
					res.fail(o.err)
					ok = false
					continue
				}
				lat = append(lat, o.ms)
				best.add(k, o.ms)
			}
			if !ok {
				continue
			}
			if cfg.Trace {
				pairs = append(pairs, [2]float64{outs[0].ms, outs[1].ms})
			}
			q.add(k, float64(outs[0].cost), in.random, float64(in.program))
		}
		if seconds(start) >= cfg.Seconds {
			break
		}
	}
	elapsed := seconds(start)
	obsAfter, memAfter := takeObs(), readMem()
	peak := heap.Stop()
	live := liveHeapMB()
	res.Attempted = placed + 1

	m := metricSet{}
	m.set("setup_s", quantile(setups, 0.5))
	m.set("latency_ms_best", best.median())
	shift, program, ok := q.ratios()
	m.setIf("shift_ratio", shift, ok)
	m.set("heap_live_mb", live)
	res.EndToEnd = m.list(endToEnd)
	if cfg.Trace {
		res.Spans = rec.snapshot()
		layers := perLayerMetrics(layerInput{
			spans:    res.Spans,
			obs:      obsDelta{obsBefore, obsAfter},
			mem:      memDelta{memBefore, memAfter},
			ops:      placed,
			lat:      lat,
			opsPerS:  float64(placed) / elapsed,
			inflight: 1,
			overhead: overheadPct(pairs),
			heapPeak: peak,
			failed:   res.Failed,
		})
		layers.setIf("core.program_order_ratio", program, ok)
		res.PerLayer = layers.list(perLayer)
	}
	return res, nil
}

// overheadPct compares traced with untraced twins: the median over pairs
// of the percentage by which the traced twin took longer (NaN without
// pairs). Twins run close together, so the neighbours' load, which moves
// by more than the overhead within seconds, mostly cancels in each ratio.
func overheadPct(pairs [][2]float64) float64 {
	var pct []float64
	for _, p := range pairs {
		if p[1] > 0 {
			pct = append(pct, (p[0]/p[1]-1)*100)
		}
	}
	return quantile(pct, 0.5)
}
