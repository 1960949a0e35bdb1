package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dwm"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config parameterizes the experiment suite.
type Config struct {
	// Seed drives every randomized component (workload generation,
	// randomized policies). Equal seeds reproduce identical tables.
	Seed int64
	// Workers bounds the concurrency of RunContext and of the
	// row-parallel experiments; 0 selects runtime.GOMAXPROCS(0). Every
	// row job is an independent pure function of (Seed, row), so the
	// produced tables are byte-identical for every worker count.
	Workers int
	// Timeout bounds the wall time of each individual experiment under
	// RunContext; 0 means no limit. An experiment exceeding
	// it fails with a timeout error on its own RunResult while its
	// siblings run to completion. The runner also threads the timeout
	// into Context, so cancellation-aware stages (core.AnnealContext)
	// stop promptly instead of being abandoned mid-flight.
	Timeout time.Duration

	// ctx is installed by the runner before an experiment executes, so
	// long-running stages inside the experiment can observe the runner's
	// cancellation and per-experiment timeout. Experiments read it via
	// Context; it is never set by callers directly.
	ctx context.Context
}

// Context returns the cancellation context the runner installed for
// this experiment execution, or a background context when the
// experiment runs outside the runner (direct calls in tests).
func (cfg Config) Context() context.Context {
	if cfg.ctx != nil {
		return cfg.ctx
	}
	return context.Background()
}

// Experiment couples an ID with its runner, for the suite driver.
type Experiment struct {
	ID   string
	Name string
	Run  func(Config) (*Table, error)
}

// All returns the full experiment suite in paper order.
func All() []Experiment {
	return []Experiment{
		{"E1", "benchmark characteristics", E1Characteristics},
		{"E2", "total shifts per policy (main comparison)", E2MainComparison},
		{"E3", "shift reduction vs tape length", E3TapeLength},
		{"E4", "shift reduction vs access ports", E4Ports},
		{"E5", "heuristic optimality gap", E5OptimalityGap},
		{"E6", "latency and energy improvement", E6LatencyEnergy},
		{"E7", "multi-tape partitioning", E7MultiTape},
		{"E8", "algorithm runtime scaling", E8Runtime},
		{"E9", "design-choice ablations", E9Ablation},
		{"E10", "online reorganization extension", E10Adaptive},
		{"E11", "placement under an SRAM miss cache", E11CacheFilter},
		{"E12", "seed robustness of the main result", E12Robustness},
		{"E13", "shift-wear leveling across tapes", E13WearLeveling},
		{"E14", "word-granular vs object-granular placement", E14Granularity},
		{"E15", "per-access shift distance distribution", E15TailLatency},
		{"E16", "port-position co-optimization", E16PortPlacement},
		{"E17", "process-variation-aware tape mapping", E17Variation},
		{"E18", "shift position faults and correction overhead", E18ShiftFaults},
		{"E19", "address interleaving vs access pattern", E19Interleaving},
		{"E20", "instruction (basic-block) placement", E20Instruction},
		{"E21", "request-window scheduling", E21Scheduling},
		{"E22", "profile-based placement generalization", E22Profile},
	}
}

// E1Characteristics reproduces the benchmark-characteristics table:
// trace length, item counts, read/write mix, transition-graph size, and
// mean reuse distance per workload.
func E1Characteristics(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Benchmark characteristics (Table 1)",
		Headers: []string{"workload", "accesses", "items", "touched", "reads", "writes", "graph edges", "mean reuse"},
	}
	for _, g := range workload.Suite() {
		tr := g.Make(cfg.Seed)
		s := tr.Summarize()
		tg, err := graph.FromTrace(tr)
		if err != nil {
			return nil, err
		}
		reuse := "n/a"
		if s.MeanReuse >= 0 {
			reuse = f1(s.MeanReuse)
		}
		t.Rows = append(t.Rows, []string{
			g.Name, itoa(int64(s.Length)), itoa(int64(s.NumItems)), itoa(int64(s.Touched)),
			itoa(s.Reads), itoa(s.Writes), itoa(int64(tg.NumEdges())), reuse,
		})
	}
	return t, nil
}

// simulateSingleTape runs a trace through a fresh single-tape device under
// a placement and returns the shift count, cross-checking the simulator
// against the analytic evaluator.
func simulateSingleTape(tr *trace.Trace, p layout.Placement, tapeLen, ports int) (sim.Result, error) {
	dev, err := dwm.NewDevice(dwm.Geometry{Tapes: 1, DomainsPerTape: tapeLen, PortsPerTape: ports},
		dwm.DefaultParams())
	if err != nil {
		return sim.Result{}, err
	}
	s, err := sim.NewSingleTape(dev, p, sim.HeadStay)
	if err != nil {
		return sim.Result{}, err
	}
	res, err := s.Run(tr)
	if err != nil {
		return sim.Result{}, err
	}
	want, err := cost.MultiPort(tr.Items(), p, dev.Geometry().PortPositions(), tapeLen)
	if err != nil {
		return sim.Result{}, err
	}
	if res.Counters.Shifts != want {
		return sim.Result{}, fmt.Errorf("bench: simulator (%d) disagrees with analytic cost (%d)",
			res.Counters.Shifts, want)
	}
	return res, nil
}

// E2MainComparison reproduces the headline comparison: total shifts per
// workload for every policy on a single-port tape sized to the working
// set, with the reduction of the best proposed configuration over program
// order.
func E2MainComparison(cfg Config) (*Table, error) {
	policies := core.Policies(cfg.Seed)
	headers := []string{"workload"}
	for _, p := range policies {
		headers = append(headers, p.Name)
	}
	headers = append(headers, "best-vs-program")
	t := &Table{
		ID:      "E2",
		Title:   "Total shifts per policy, single-port tape sized to working set (Table 2 / main figure)",
		Headers: headers,
		Notes: []string{
			"tape length = #items, single centered port, head stays where it parks",
		},
	}
	// Each row is an independent pure function of (cfg.Seed, workload),
	// so the rows compute on the worker pool and assemble in suite order.
	suite := workload.Suite()
	rows, err := parMap(cfg.workers(), len(suite), func(i int) ([]string, error) {
		g := suite[i]
		tr := g.Make(cfg.Seed)
		gr, err := graph.FromTrace(tr)
		if err != nil {
			return nil, err
		}
		row := []string{g.Name}
		var programShifts, bestProposed int64 = -1, -1
		for _, pol := range policies {
			p, err := pol.Place(tr, gr)
			if err != nil {
				return nil, err
			}
			res, err := simulateSingleTape(tr, p, tr.NumItems, 1)
			if err != nil {
				return nil, err
			}
			shifts := res.Counters.Shifts
			row = append(row, itoa(shifts))
			if pol.Name == "program" {
				programShifts = shifts
			}
			if !pol.Baseline && (bestProposed < 0 || shifts < bestProposed) {
				bestProposed = shifts
			}
		}
		row = append(row, pct(programShifts, bestProposed))
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// E3TapeLength reproduces the tape-length sensitivity figure: a fixed
// working set spread over enough tapes of each length, comparing the
// naive contiguous layout against the proposed partition+arrangement
// pipeline.
func E3TapeLength(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Total shifts vs tape length (figure): contiguous baseline vs proposed multi-tape pipeline",
		Headers: []string{"workload", "tape len", "tapes", "contiguous", "proposed", "reduction"},
		Notes:   []string{"device capacity = working set; one centered port per tape"},
	}
	for _, name := range []string{"fir", "matmul", "stencil"} {
		g, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		tr := g.Make(cfg.Seed)
		for _, tapeLen := range []int{16, 32, 64, 128} {
			if tapeLen > 2*tr.NumItems {
				continue
			}
			tapes := (tr.NumItems + tapeLen - 1) / tapeLen
			ports := dwm.SpreadPorts(tapeLen, 1)
			seq := tr.Items()

			contig, err := core.ContiguousPartition(tr, tapes, tapeLen)
			if err != nil {
				return nil, err
			}
			naive, err := core.PackedPlacement(tr, contig, tapes)
			if err != nil {
				return nil, err
			}
			base, err := cost.MultiTape(seq, naive, tapes, tapeLen, ports)
			if err != nil {
				return nil, err
			}

			_, prop, err := core.ProposeMultiTape(tr, tapes, tapeLen, ports)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				name, itoa(int64(tapeLen)), itoa(int64(tapes)),
				itoa(base), itoa(prop), pct(base, prop),
			})
		}
	}
	return t, nil
}

// E4Ports reproduces the port-count sensitivity figure on a single tape:
// program order and organ pipe versus the port-aware proposed placement
// for 1, 2, 4, and 8 ports.
func E4Ports(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Total shifts vs number of access ports, single tape (figure)",
		Headers: []string{"workload", "ports", "program", "organpipe", "proposed", "reduction", "oracle sched"},
		Notes: []string{
			"tape length = #items; ports evenly spread; proposed = port-aware greedy+refinement",
			"oracle sched = proposed placement under DP-optimal (lookahead) port choice instead of nearest-port",
		},
	}
	for _, name := range []string{"fir", "fft", "zipf"} {
		g, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		tr := g.Make(cfg.Seed)
		n := tr.NumItems
		for _, k := range []int{1, 2, 4, 8} {
			ports := dwm.SpreadPorts(n, k)
			seq := tr.Items()

			po, err := core.ProgramOrder(tr)
			if err != nil {
				return nil, err
			}
			baseP, err := cost.MultiPort(seq, po, ports, n)
			if err != nil {
				return nil, err
			}
			op, err := core.OrganPipe(tr)
			if err != nil {
				return nil, err
			}
			baseO, err := cost.MultiPort(seq, op, ports, n)
			if err != nil {
				return nil, err
			}
			propP, prop, err := core.PortAware(tr, n, ports, core.PortAwareOptions{Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			oracle, err := cost.MultiPortOptimal(seq, propP, ports, n)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				name, itoa(int64(k)), itoa(baseP), itoa(baseO), itoa(prop), pct(baseP, prop),
				itoa(oracle),
			})
		}
	}
	return t, nil
}

// E5OptimalityGap reproduces the optimality-gap study: on instances small
// enough for the exact DP, the ratio of each heuristic's cost to the
// optimum.
func E5OptimalityGap(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Heuristic cost / optimal cost on small instances (figure)",
		Headers: []string{"instance", "n", "optimal", "greedy", "greedy2opt", "anneal", "worst ratio"},
		Notes:   []string{"optimal via subset DP; ratios of Linear (MinLA) cost"},
	}
	type inst struct {
		name string
		tr   *trace.Trace
	}
	var instances []inst
	for _, n := range []int{8, 10, 12, 14} {
		instances = append(instances,
			inst{fmt.Sprintf("zipf-%d", n), workload.Zipf(n, 2000, 1.2, cfg.Seed)},
			inst{fmt.Sprintf("chase-%d", n), workload.PointerChase(n, 2000, cfg.Seed)},
			inst{fmt.Sprintf("uniform-%d", n), workload.Uniform(n, 2000, cfg.Seed)},
		)
	}
	for _, in := range instances {
		g, err := graph.FromTrace(in.tr)
		if err != nil {
			return nil, err
		}
		_, opt, err := core.ExactDP(g)
		if err != nil {
			return nil, err
		}
		gp, err := core.GreedyChain(g, core.SeedHeaviestEdge)
		if err != nil {
			return nil, err
		}
		gc, err := cost.Linear(g, gp)
		if err != nil {
			return nil, err
		}
		_, tc, err := core.GreedyTwoOpt(g, core.TwoOptOptions{})
		if err != nil {
			return nil, err
		}
		_, ac, err := core.AnnealContext(cfg.Context(), g, gp, core.AnnealOptions{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		worst := ratio(gc, opt)
		for _, r := range []float64{ratio(tc, opt), ratio(ac, opt)} {
			if r > worst {
				worst = r
			}
		}
		t.Rows = append(t.Rows, []string{
			in.name, itoa(int64(g.N())), itoa(opt), itoa(gc), itoa(tc), itoa(ac), f2(worst),
		})
	}
	return t, nil
}

func ratio(x, base int64) float64 {
	if base == 0 {
		if x == 0 {
			return 1
		}
		return float64(x)
	}
	return float64(x) / float64(base)
}

// programAndProposed returns the two placements most tables compare:
// tr's program (first-touch) order and the proposed placement of its
// access graph.
func programAndProposed(tr *trace.Trace) (po, pp layout.Placement, err error) {
	gr, err := graph.FromTrace(tr)
	if err != nil {
		return nil, nil, err
	}
	if po, err = core.ProgramOrder(tr); err != nil {
		return nil, nil, err
	}
	if pp, _, err = core.Propose(tr, gr); err != nil {
		return nil, nil, err
	}
	return po, pp, nil
}

// E6LatencyEnergy reproduces the latency/energy table: program order
// versus the proposed greedy+2-opt placement, full device accounting.
func E6LatencyEnergy(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "Access latency and energy, program order vs proposed (table)",
		Headers: []string{"workload", "lat base (us)", "lat prop (us)", "lat gain",
			"energy base (nJ)", "energy prop (nJ)", "energy gain"},
		Notes: []string{"device params: shift 0.5ns/0.5pJ, read 1ns/1pJ, write 1.5ns/2pJ"},
	}
	for _, g := range workload.Suite() {
		tr := g.Make(cfg.Seed)
		po, pp, err := programAndProposed(tr)
		if err != nil {
			return nil, err
		}
		baseRes, err := simulateSingleTape(tr, po, tr.NumItems, 1)
		if err != nil {
			return nil, err
		}
		propRes, err := simulateSingleTape(tr, pp, tr.NumItems, 1)
		if err != nil {
			return nil, err
		}
		latGain := "n/a"
		if baseRes.LatencyNS > 0 {
			latGain = fmt.Sprintf("%.1f%%", 100*(baseRes.LatencyNS-propRes.LatencyNS)/baseRes.LatencyNS)
		}
		enGain := "n/a"
		if baseRes.EnergyPJ > 0 {
			enGain = fmt.Sprintf("%.1f%%", 100*(baseRes.EnergyPJ-propRes.EnergyPJ)/baseRes.EnergyPJ)
		}
		t.Rows = append(t.Rows, []string{
			g.Name,
			f1(baseRes.LatencyNS / 1e3), f1(propRes.LatencyNS / 1e3), latGain,
			f1(baseRes.EnergyPJ / 1e3), f1(propRes.EnergyPJ / 1e3), enGain,
		})
	}
	return t, nil
}

// E7MultiTape reproduces the multi-tape partitioning figure: four
// partition strategies (contiguous, round robin, hash, proposed affinity)
// combined with per-tape arrangement, across tape counts.
func E7MultiTape(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Total shifts by partition strategy and tape count (figure)",
		Headers: []string{"workload", "tapes", "contiguous", "roundrobin", "hash", "affinity", "portfolio", "portfolio vs contiguous"},
		Notes: []string{
			"all partitions get the same per-tape greedy+2-opt arrangement; capacity = tape length",
			"portfolio = proposed pick-best over {contiguous, roundrobin, affinity, packed} scored by the exact evaluator",
		},
	}
	// One worker-pool job per workload, each producing its block of rows;
	// blocks flatten in workload order, so the table is identical for any
	// worker count.
	names := []string{"matmul", "stencil", "histogram"}
	blocks, err := parMap(cfg.workers(), len(names), func(i int) ([][]string, error) {
		name := names[i]
		g, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		tr := g.Make(cfg.Seed)
		gr, err := graph.FromTrace(tr)
		if err != nil {
			return nil, err
		}
		var rows [][]string
		for _, tapes := range []int{2, 4, 8} {
			tapeLen := (tr.NumItems + tapes - 1) / tapes
			if tapeLen < 2 {
				continue
			}
			ports := dwm.SpreadPorts(tapeLen, 1)
			seq := tr.Items()
			eval := func(pt core.Partition) (int64, error) {
				mp, err := core.ArrangePartition(tr, pt, tapes, tapeLen, ports)
				if err != nil {
					return 0, err
				}
				return cost.MultiTape(seq, mp, tapes, tapeLen, ports)
			}
			contig, err := core.ContiguousPartition(tr, tapes, tapeLen)
			if err != nil {
				return nil, err
			}
			cCost, err := eval(contig)
			if err != nil {
				return nil, err
			}
			rrCost, err := eval(core.RoundRobinPartition(tr.NumItems, tapes))
			if err != nil {
				return nil, err
			}
			hash, err := core.HashPartition(tr.NumItems, tapes, tapeLen)
			if err != nil {
				return nil, err
			}
			hCost, err := eval(hash)
			if err != nil {
				return nil, err
			}
			aff, err := core.AffinityPartition(gr, tapes, tapeLen)
			if err != nil {
				return nil, err
			}
			aCost, err := eval(aff)
			if err != nil {
				return nil, err
			}
			_, pCost, err := core.ProposeMultiTape(tr, tapes, tapeLen, ports)
			if err != nil {
				return nil, err
			}
			rows = append(rows, []string{
				name, itoa(int64(tapes)),
				itoa(cCost), itoa(rrCost), itoa(hCost), itoa(aCost), itoa(pCost), pct(cCost, pCost),
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	for _, b := range blocks {
		t.Rows = append(t.Rows, b...)
	}
	return t, nil
}

// E8Runtime reproduces the algorithm-runtime figure: construction time of
// each algorithm as the item count grows (heuristics) and for the exact
// DP on small instances.
//
//dwmlint:ignore walltime E8 measures algorithm runtime — wall clock IS the experiment's output; its time column is exempt from cross-run comparison (see determinism-smoke)
func E8Runtime(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Placement algorithm runtime (figure)",
		Headers: []string{"algorithm", "n", "time (ms)", "cost"},
		Notes:   []string{"single run each, Zipf(1.2) workloads, wall clock; exact DP limited to small n"},
	}
	for _, n := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
		tr := workload.Zipf(n, 20*n, 1.2, cfg.Seed)
		g, err := graph.FromTrace(tr)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		gp, err := core.GreedyChain(g, core.SeedHeaviestEdge)
		if err != nil {
			return nil, err
		}
		gt := time.Since(start)
		gc, err := cost.Linear(g, gp)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"greedy", itoa(int64(n)), f2(float64(gt.Microseconds()) / 1e3), itoa(gc)})

		start = time.Now()
		_, tc, err := core.TwoOpt(g, gp, core.TwoOptOptions{Window: 8, MaxPasses: 4})
		if err != nil {
			return nil, err
		}
		tt := time.Since(start)
		t.Rows = append(t.Rows, []string{"greedy+2opt(w8)", itoa(int64(n)), f2(float64(tt.Microseconds()) / 1e3), itoa(tc)})

		start = time.Now()
		_, ac, err := core.AnnealContext(cfg.Context(), g, gp, core.AnnealOptions{Seed: cfg.Seed, Iterations: 100 * n})
		if err != nil {
			return nil, err
		}
		at := time.Since(start)
		t.Rows = append(t.Rows, []string{"anneal(100n)", itoa(int64(n)), f2(float64(at.Microseconds()) / 1e3), itoa(ac)})

		start = time.Now()
		_, bc, err := core.Barycentric(g, layout.Identity(n))
		if err != nil {
			return nil, err
		}
		bt := time.Since(start)
		t.Rows = append(t.Rows, []string{"barycentric(id)", itoa(int64(n)), f2(float64(bt.Microseconds()) / 1e3), itoa(bc)})

		start = time.Now()
		_, mc, err := core.Multilevel(g, core.MultilevelOptions{})
		if err != nil {
			return nil, err
		}
		mt := time.Since(start)
		t.Rows = append(t.Rows, []string{"multilevel", itoa(int64(n)), f2(float64(mt.Microseconds()) / 1e3), itoa(mc)})
	}
	for _, n := range []int{10, 12, 14, 16} {
		tr := workload.Zipf(n, 3000, 1.2, cfg.Seed)
		g, err := graph.FromTrace(tr)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		_, opt, err := core.ExactDP(g)
		if err != nil {
			return nil, err
		}
		dt := time.Since(start)
		t.Rows = append(t.Rows, []string{"exactDP", itoa(int64(n)), f2(float64(dt.Microseconds()) / 1e3), itoa(opt)})
	}
	return t, nil
}

// E9Ablation reproduces the design-choice ablations called out in
// DESIGN.md §5: greedy seed rule, 2-opt window, annealing schedule,
// frequency layout shape, and simulator head policy.
func E9Ablation(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Design-choice ablations (Linear cost unless noted)",
		Headers: []string{"workload", "knob", "setting", "cost"},
	}
	names := []string{"fir", "fft", "zipf"}
	for _, name := range names {
		g, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		tr := g.Make(cfg.Seed)
		gr, err := graph.FromTrace(tr)
		if err != nil {
			return nil, err
		}

		add := func(knob, setting string, c int64) {
			t.Rows = append(t.Rows, []string{name, knob, setting, itoa(c)})
		}

		// Greedy seed rule.
		for _, s := range []struct {
			name string
			seed core.GreedySeed
		}{{"heaviest-edge", core.SeedHeaviestEdge}, {"heaviest-vertex", core.SeedHeaviestVertex}} {
			p, err := core.GreedyChain(gr, s.seed)
			if err != nil {
				return nil, err
			}
			c, err := cost.Linear(gr, p)
			if err != nil {
				return nil, err
			}
			add("greedy-seed", s.name, c)
		}

		// 2-opt window.
		base, err := core.GreedyChain(gr, core.SeedHeaviestEdge)
		if err != nil {
			return nil, err
		}
		for _, w := range []int{0, 2, 8} {
			label := "full"
			if w > 0 {
				label = fmt.Sprintf("window=%d", w)
			}
			_, c, err := core.TwoOpt(gr, base, core.TwoOptOptions{Window: w})
			if err != nil {
				return nil, err
			}
			add("2opt-window", label, c)
		}

		// WindowDP width on top of greedy+2-opt.
		refined, _, err := core.TwoOpt(gr, base, core.TwoOptOptions{})
		if err != nil {
			return nil, err
		}
		for _, w := range []int{0, 4, 6, 8} {
			if w == 0 {
				c, err := cost.Linear(gr, refined)
				if err != nil {
					return nil, err
				}
				add("windowdp", "off", c)
				continue
			}
			_, c, err := core.WindowDP(gr, refined, core.WindowDPOptions{Window: w, MaxPasses: 4})
			if err != nil {
				return nil, err
			}
			add("windowdp", fmt.Sprintf("window=%d", w), c)
		}

		// Annealing cooling factor.
		for _, cool := range []float64{0.90, 0.97, 0.99} {
			_, c, err := core.AnnealContext(cfg.Context(), gr, base, core.AnnealOptions{Seed: cfg.Seed, Cooling: cool})
			if err != nil {
				return nil, err
			}
			add("anneal-cooling", fmt.Sprintf("%.2f", cool), c)
		}

		// Frequency layout shape (sequence cost with a centered port).
		for _, fl := range []struct {
			label string
			port  int
		}{{"from-port0", 0}, {"organ-pipe", tr.NumItems / 2}} {
			p, err := core.Frequency(tr, fl.port)
			if err != nil {
				return nil, err
			}
			c, err := cost.MultiPort(tr.Items(), p, []int{tr.NumItems / 2}, tr.NumItems)
			if err != nil {
				return nil, err
			}
			add("frequency-shape", fl.label+" (seq cost)", c)
		}

		// Head policy: shifts for two back-to-back runs of the kernel.
		pp, _, err := core.GreedyTwoOpt(gr, core.TwoOptOptions{})
		if err != nil {
			return nil, err
		}
		for _, hp := range []struct {
			label string
			pol   sim.HeadPolicy
		}{{"stay", sim.HeadStay}, {"return", sim.HeadReturn}} {
			dev, err := dwm.NewDevice(dwm.Geometry{Tapes: 1, DomainsPerTape: tr.NumItems, PortsPerTape: 1},
				dwm.DefaultParams())
			if err != nil {
				return nil, err
			}
			s, err := sim.NewSingleTape(dev, pp, hp.pol)
			if err != nil {
				return nil, err
			}
			var shifts int64
			for i := 0; i < 2; i++ {
				res, err := s.Run(tr)
				if err != nil {
					return nil, err
				}
				shifts += res.Counters.Shifts
			}
			add("head-policy", hp.label+" (2 runs, shifts)", shifts)
		}
	}
	return t, nil
}
