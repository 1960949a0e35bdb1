package bench

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cost"
	"repro/internal/workload"
)

// E11CacheFilter evaluates the SRAM-buffer extension: how much of the
// placement benefit survives once a small cache in front of the DWM
// absorbs short-term reuse. The placement is computed on the *filtered*
// stream (what the DWM actually sees), which is the right input for the
// optimizer in this architecture.
func E11CacheFilter(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "Placement benefit under an SRAM miss cache (extension)",
		Headers: []string{"workload", "cache", "hit rate", "DWM accesses",
			"program", "proposed", "reduction"},
		Notes: []string{
			"fully associative LRU, word lines, write-back + final flush",
			"placement computed on the filtered (miss + write-back) stream",
		},
	}
	for _, name := range []string{"fir", "histogram", "zipf"} {
		g, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		tr := g.Make(cfg.Seed)
		for _, capacity := range []int{0, 4, 8, 16} {
			filtered, st, err := cache.Filter(tr, capacity, cache.LRU)
			if err != nil {
				return nil, err
			}
			label := "none"
			if capacity > 0 {
				label = fmt.Sprintf("%d", capacity)
			}
			if filtered.Len() == 0 {
				t.Rows = append(t.Rows, []string{
					name, label, f2(st.HitRate()), "0", "0", "0", "n/a",
				})
				continue
			}
			po, pp, err := programAndProposed(filtered)
			if err != nil {
				return nil, err
			}
			ports := []int{filtered.NumItems / 2}
			base, err := cost.MultiPort(filtered.Items(), po, ports, filtered.NumItems)
			if err != nil {
				return nil, err
			}
			prop, err := cost.MultiPort(filtered.Items(), pp, ports, filtered.NumItems)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				name, label, f2(st.HitRate()), itoa(int64(filtered.Len())),
				itoa(base), itoa(prop), pct(base, prop),
			})
		}
	}
	return t, nil
}
