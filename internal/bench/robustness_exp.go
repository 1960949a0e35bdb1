package bench

import (
	"repro/internal/cost"
	"repro/internal/stats"
	"repro/internal/workload"
)

// E12Robustness re-runs the main comparison over several seeds and
// reports the shift reduction of the proposed pipeline as mean ± stddev,
// establishing that the headline numbers are not seed artifacts. Only the
// workloads with a random component vary across seeds; the deterministic
// kernels are included once as a control (stddev must be exactly zero).
func E12Robustness(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Seed robustness of the proposed reduction (extension)",
		Headers: []string{"workload", "seeds", "reduction % (mean ± sd [min,max])"},
		Notes:   []string{"single centered port, tape = working set; 5 seeds starting at the config seed"},
	}
	const runs = 5
	for _, g := range workload.Suite() {
		var reductions []float64
		for s := int64(0); s < runs; s++ {
			seed := cfg.Seed + s
			tr := g.Make(seed)
			po, pp, err := programAndProposed(tr)
			if err != nil {
				return nil, err
			}
			ports := []int{tr.NumItems / 2}
			base, err := cost.MultiPort(tr.Items(), po, ports, tr.NumItems)
			if err != nil {
				return nil, err
			}
			prop, err := cost.MultiPort(tr.Items(), pp, ports, tr.NumItems)
			if err != nil {
				return nil, err
			}
			red := 0.0
			if base > 0 {
				red = 100 * float64(base-prop) / float64(base)
			}
			reductions = append(reductions, red)
		}
		sum, err := stats.Summarize(reductions)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{g.Name, itoa(runs), sum.String()})
	}
	return t, nil
}
