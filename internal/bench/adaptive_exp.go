package bench

import (
	"repro/internal/adaptive"
	"repro/internal/dwm"
	"repro/internal/layout"
	"repro/internal/trace"
	"repro/internal/workload"
)

// E10Adaptive evaluates the online-reorganization extension: static
// placements versus runtime transposition and epoch rebuilding, on both a
// stationary workload (where static placement should win — migrations are
// pure overhead) and a phase-shifting workload (where adaptivity must pay
// for itself). Migration costs are charged through the device model, so
// the comparison is honest.
func E10Adaptive(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "Online reorganization (extension): total shifts incl. migration cost",
		Headers: []string{"workload", "start layout", "static", "transpose", "epoch", "best adaptive vs static"},
		Notes: []string{
			"single tape, one centered port; migrations pay real device shifts/reads/writes",
			"phased = hot set rotates 8x; stationary = fixed Zipf(1.3)",
		},
	}
	cases := []struct {
		name string
		tr   *trace.Trace
	}{
		{"phased", workload.Phased(64, 16384, 8, 1.3, cfg.Seed)},
		{"stationary", workload.Zipf(64, 16384, 1.3, cfg.Seed)},
	}
	for _, c := range cases {
		po, pp, err := programAndProposed(c.tr)
		if err != nil {
			return nil, err
		}
		starts := []struct {
			name string
			p    layout.Placement
		}{{"program", po}, {"proposed", pp}}
		for _, st := range starts {
			run := func(pol adaptive.Policy) (int64, error) {
				dev, err := dwm.NewDevice(dwm.Geometry{
					Tapes: 1, DomainsPerTape: c.tr.NumItems, PortsPerTape: 1,
				}, dwm.DefaultParams())
				if err != nil {
					return 0, err
				}
				s, err := adaptive.NewSimulator(dev, st.p, pol)
				if err != nil {
					return 0, err
				}
				res, err := s.Run(c.tr)
				if err != nil {
					return 0, err
				}
				return res.Counters.Shifts, nil
			}
			static, err := run(adaptive.Static{})
			if err != nil {
				return nil, err
			}
			trans, err := run(adaptive.Transpose{})
			if err != nil {
				return nil, err
			}
			epoch, err := run(&adaptive.Epoch{Window: 1024})
			if err != nil {
				return nil, err
			}
			best := trans
			if epoch < best {
				best = epoch
			}
			t.Rows = append(t.Rows, []string{
				c.name, st.name, itoa(static), itoa(trans), itoa(epoch), pct(static, best),
			})
		}
	}
	return t, nil
}
