package bench

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dwm"
	"repro/internal/workload"
)

// E13WearLeveling evaluates the shift-wear extension: the min-total
// pipeline versus the wear-balanced refinement, reporting total shifts,
// the hottest tape's shifts (the wire that dies first), and the resulting
// lifetime gain (inverse of max wear). The interesting trade-off is how
// much total-shift cost wear leveling pays for its lifetime improvement.
func E13WearLeveling(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E13",
		Title: "Shift-wear leveling across tapes (extension)",
		Headers: []string{"workload", "tapes", "total (min-total)", "max tape (min-total)",
			"total (balanced)", "max tape (balanced)", "lifetime gain", "total overhead"},
		Notes: []string{
			"device leaves 25% free slots so items can migrate; one centered port per tape",
			"lifetime gain = maxTape(min-total) / maxTape(balanced); wear = per-wire shift count",
		},
	}
	for _, spec := range []struct {
		name  string
		tapes int
	}{
		{"zipf", 4}, {"histogram", 4}, {"fir", 4},
	} {
		g, err := workload.ByName(spec.name)
		if err != nil {
			return nil, err
		}
		tr := g.Make(cfg.Seed)
		tapes := spec.tapes
		// 25% headroom for migration.
		tapeLen := (tr.NumItems*5/4 + tapes - 1) / tapes
		ports := dwm.SpreadPorts(tapeLen, 1)
		seq := tr.Items()

		mp, baseTotal, err := core.ProposeMultiTape(tr, tapes, tapeLen, ports)
		if err != nil {
			return nil, err
		}
		basePer, err := cost.MultiTapeBreakdown(seq, mp, tapes, tapeLen, ports)
		if err != nil {
			return nil, err
		}
		var baseMax int64
		for _, c := range basePer {
			if c > baseMax {
				baseMax = c
			}
		}

		_, balTotal, balMax, err := core.WearBalancedMultiTape(tr, tapes, tapeLen, ports)
		if err != nil {
			return nil, err
		}

		gain := "n/a"
		if balMax > 0 {
			gain = f2(float64(baseMax) / float64(balMax))
		}
		overhead := "n/a"
		if baseTotal > 0 {
			overhead = f1(100 * float64(balTotal-baseTotal) / float64(baseTotal))
		}
		t.Rows = append(t.Rows, []string{
			spec.name, itoa(int64(tapes)),
			itoa(baseTotal), itoa(baseMax),
			itoa(balTotal), itoa(balMax),
			gain, overhead + "%",
		})
	}
	return t, nil
}
