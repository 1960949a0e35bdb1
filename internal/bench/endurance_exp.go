package bench

import (
	"math"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dwm"
	"repro/internal/endurance"
	"repro/internal/stats"
	"repro/internal/workload"
)

// E17Variation evaluates the process-variation extension: wires differ in
// shift endurance (lognormal, sigma 0.2/0.4), and the controller can
// choose which physical wire backs which logical tape. Compared mappings:
// variation-oblivious (identity), variation-aware sorted matching
// (provably optimal for a fixed placement), and sorted matching on top of
// the wear-balanced placement from E13. Lifetimes are averaged over 20
// sampled profiles and normalized to the oblivious baseline.
func E17Variation(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E17",
		Title: "Process-variation-aware tape mapping (extension)",
		Headers: []string{"workload", "sigma", "aware/oblivious (mean ± sd)",
			"aware+balanced/oblivious (mean ± sd)"},
		Notes: []string{
			"4 tapes, 25% slack; lognormal endurance variation, 20 profiles per cell",
			"lifetime = iterations until the first wire exhausts its shift budget",
		},
	}
	const (
		tapes    = 4
		nominal  = 1e8
		profiles = 20
	)
	for _, name := range []string{"zipf", "histogram"} {
		g, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		tr := g.Make(cfg.Seed)
		tapeLen := (tr.NumItems*5/4 + tapes - 1) / tapes
		ports := dwm.SpreadPorts(tapeLen, 1)
		seq := tr.Items()

		mp, _, err := core.ProposeMultiTape(tr, tapes, tapeLen, ports)
		if err != nil {
			return nil, err
		}
		baseRates, err := cost.MultiTapeBreakdown(seq, mp, tapes, tapeLen, ports)
		if err != nil {
			return nil, err
		}
		balMP, _, _, err := core.WearBalancedMultiTape(tr, tapes, tapeLen, ports)
		if err != nil {
			return nil, err
		}
		balRates, err := cost.MultiTapeBreakdown(seq, balMP, tapes, tapeLen, ports)
		if err != nil {
			return nil, err
		}

		for _, sigma := range []float64{0.2, 0.4} {
			var awareGain, comboGain []float64
			for s := int64(0); s < profiles; s++ {
				prof, err := endurance.SampleProfile(tapes, nominal, sigma, cfg.Seed+s)
				if err != nil {
					return nil, err
				}
				oblivious, err := prof.Lifetime(baseRates, endurance.IdentityMapping(tapes))
				if err != nil {
					return nil, err
				}
				awareMap, err := prof.BestMapping(baseRates)
				if err != nil {
					return nil, err
				}
				aware, err := prof.Lifetime(baseRates, awareMap)
				if err != nil {
					return nil, err
				}
				comboMap, err := prof.BestMapping(balRates)
				if err != nil {
					return nil, err
				}
				combo, err := prof.Lifetime(balRates, comboMap)
				if err != nil {
					return nil, err
				}
				if oblivious > 0 && !math.IsInf(oblivious, 1) {
					awareGain = append(awareGain, aware/oblivious)
					comboGain = append(comboGain, combo/oblivious)
				}
			}
			a, err := stats.Summarize(awareGain)
			if err != nil {
				return nil, err
			}
			c, err := stats.Summarize(comboGain)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				name, f2(sigma),
				f2(a.Mean) + " ± " + f2(a.Stddev),
				f2(c.Mean) + " ± " + f2(c.Stddev),
			})
		}
	}
	return t, nil
}
