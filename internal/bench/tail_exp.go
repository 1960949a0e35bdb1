package bench

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dwm"
	"repro/internal/graph"
	"repro/internal/workload"
)

// E15TailLatency examines the per-access shift-distance distribution:
// worst-case access latency is bounded by the tail, and a placement that
// halves the total can shrink the P95/max even more (hot items cluster at
// the port; only cold excursions stay long). Program order versus the
// proposed pipeline, single centered port.
func E15TailLatency(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "Per-access shift distance distribution (extension)",
		Headers: []string{"workload", "policy", "mean", "p50", "p95", "max"},
		Notes:   []string{"single centered port, tape = working set"},
	}
	for _, name := range []string{"fir", "histogram", "zipf", "uniform"} {
		g, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		tr := g.Make(cfg.Seed)
		po, pp, err := programAndProposed(tr)
		if err != nil {
			return nil, err
		}
		for _, c := range []struct {
			label string
			p     []int
		}{{"program", po}, {"proposed", pp}} {
			res, err := simulateSingleTape(tr, c.p, tr.NumItems, 1)
			if err != nil {
				return nil, err
			}
			sd := res.ShiftDist
			t.Rows = append(t.Rows, []string{
				name, c.label, f2(sd.Mean), itoa(int64(sd.P50)), itoa(int64(sd.P95)), itoa(int64(sd.Max)),
			})
		}
	}
	return t, nil
}

// E16PortPlacement evaluates design-time port-position co-optimization:
// the evenly spread default versus ports placed by OptimizePorts for the
// proposed placement, on a tape with 2x slack (skew has room to matter).
func E16PortPlacement(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "Port-position co-optimization (extension)",
		Headers: []string{"workload", "ports", "spread ports", "optimized ports", "gain", "positions"},
		Notes:   []string{"tape = 2x working set; placement fixed to the proposed pipeline centered on the tape"},
	}
	for _, name := range []string{"zipf", "histogram", "fir"} {
		g, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		tr := g.Make(cfg.Seed)
		gr, err := graph.FromTrace(tr)
		if err != nil {
			return nil, err
		}
		tapeLen := 2 * tr.NumItems
		pp, _, err := core.Propose(tr, gr)
		if err != nil {
			return nil, err
		}
		centered, err := core.CenterOnPort(pp, tapeLen, tapeLen/2)
		if err != nil {
			return nil, err
		}
		seq := tr.Items()
		for _, k := range []int{1, 2, 4} {
			spread := dwm.SpreadPorts(tapeLen, k)
			base, err := cost.MultiPort(seq, centered, spread, tapeLen)
			if err != nil {
				return nil, err
			}
			ports, opt, err := core.OptimizePorts(seq, centered, k, tapeLen)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				name, itoa(int64(k)), itoa(base), itoa(opt), pct(base, opt),
				intsToString(ports),
			})
		}
	}
	return t, nil
}

func intsToString(xs []int) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += itoa(int64(x))
	}
	return s
}
