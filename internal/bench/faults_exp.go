package bench

import (
	"fmt"

	"repro/internal/dwm"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// E18ShiftFaults evaluates the reliability extension: per-shift position
// errors with sense-and-correct recovery. Every fault costs corrective
// shifts, so total exposure scales with how many shifts a placement
// performs — a placement that minimizes shifts also minimizes fault
// events and correction overhead. The table reports, per fault rate and
// fault mode (uniform per-shift errors versus position-dependent
// pinning at fabrication defects), the total shifts and fault counts
// for program order versus the proposed placement. Pinning keeps the
// mean error rate of the uniform model but concentrates it at defect
// sites: shift paths crossing a strongly pinned region fault
// repeatedly, including during correction — so reducing shift exposure
// helps at least as much as under the uniform model.
func E18ShiftFaults(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E18",
		Title: "Shift position faults with sense-and-correct recovery (extension)",
		Headers: []string{"workload", "fault prob", "mode", "policy", "shifts", "faults",
			"overhead vs p=0"},
		Notes: []string{
			"single centered port, tape = working set; corrections realign before every access completes",
			"pinning: per-position weights in [0.25,1.75] (mean 1) scale the base probability — same mean error rate, clustered at defects",
		},
	}
	modes := []struct {
		label string
		mode  dwm.FaultMode
	}{{"uniform", dwm.FaultUniform}, {"pinning", dwm.FaultPinning}}
	for _, name := range []string{"fir", "zipf"} {
		g, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		tr := g.Make(cfg.Seed)
		po, pp, err := programAndProposed(tr)
		if err != nil {
			return nil, err
		}
		for _, policy := range []struct {
			label string
			p     layout.Placement
		}{{"program", po}, {"proposed", pp}} {
			var baseline int64 = -1
			for _, m := range modes {
				for _, prob := range []float64{0, 1e-4, 1e-3, 1e-2} {
					if prob == 0 && m.mode != dwm.FaultUniform {
						// p=0 disables injection in every mode; one baseline
						// row per policy is enough.
						continue
					}
					shifts, faults, err := simulateWithFaults(tr, policy.p, prob, cfg.Seed, m.mode)
					if err != nil {
						return nil, err
					}
					if prob == 0 {
						baseline = shifts
					}
					t.Rows = append(t.Rows, []string{
						name, fmt.Sprintf("%g", prob), m.label, policy.label,
						itoa(shifts), itoa(faults),
						fmt.Sprintf("%.2f%%", 100*float64(shifts-baseline)/float64(maxI64(baseline, 1))),
					})
				}
			}
		}
	}
	return t, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// simulateWithFaults runs the trace on a fresh faulty single-tape device.
func simulateWithFaults(tr *trace.Trace, p layout.Placement, prob float64, seed int64, mode dwm.FaultMode) (shifts, faults int64, err error) {
	dev, err := dwm.NewDevice(dwm.Geometry{
		Tapes: 1, DomainsPerTape: tr.NumItems, PortsPerTape: 1,
	}, dwm.DefaultParams())
	if err != nil {
		return 0, 0, err
	}
	if err := dev.EnableFaults(dwm.FaultModel{Prob: prob, Seed: seed, Mode: mode}); err != nil {
		return 0, 0, err
	}
	s, err := sim.NewSingleTape(dev, p, sim.HeadStay)
	if err != nil {
		return 0, 0, err
	}
	res, err := s.Run(tr)
	if err != nil {
		return 0, 0, err
	}
	return res.Counters.Shifts, dev.Faults(), nil
}
