package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func runExp(t *testing.T, f func(Config) (*Table, error)) *Table {
	t.Helper()
	tb, err := f(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tb.ID == "" || tb.Title == "" || len(tb.Headers) == 0 || len(tb.Rows) == 0 {
		t.Fatalf("malformed table: %+v", tb)
	}
	for i, row := range tb.Rows {
		if len(row) != len(tb.Headers) {
			t.Fatalf("row %d has %d cells, want %d", i, len(row), len(tb.Headers))
		}
	}
	return tb
}

// cellInt parses a numeric cell.
func cellInt(t *testing.T, s string) int64 {
	t.Helper()
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("cell %q not an int: %v", s, err)
	}
	return v
}

func TestE1Shape(t *testing.T) {
	tb := runExp(t, E1Characteristics)
	if len(tb.Rows) != 15 {
		t.Errorf("expected 15 workloads, got %d", len(tb.Rows))
	}
}

func TestE2ProposedBeatsBaselines(t *testing.T) {
	tb := runExp(t, E2MainComparison)
	idx := map[string]int{}
	for i, h := range tb.Headers {
		idx[h] = i
	}
	for _, row := range tb.Rows {
		name := row[0]
		program := cellInt(t, row[idx["program"]])
		proposed := cellInt(t, row[idx["proposed"]])
		anneal := cellInt(t, row[idx["anneal"]])
		best := proposed
		if anneal < best {
			best = anneal
		}
		// The multi-start pipeline is seeded with program order and can
		// never lose to it.
		if best > program {
			t.Errorf("%s: best proposed %d worse than program order %d", name, best, program)
		}
		// Kernels with exploitable structure must see a substantial
		// reduction; kernels whose first-touch order is already the
		// access chain (ptrchase, zigzag) legitimately see ~0%.
		switch name {
		case "fir", "matmul", "fft", "histogram", "zipf":
			if float64(best) > 0.7*float64(program) {
				t.Errorf("%s: expected >30%% reduction, got %d vs %d", name, best, program)
			}
		}
	}
}

func TestE3ProposedNeverLoses(t *testing.T) {
	tb := runExp(t, E3TapeLength)
	for _, row := range tb.Rows {
		base := cellInt(t, row[3])
		prop := cellInt(t, row[4])
		if prop > base {
			t.Errorf("%s tapeLen %s: proposed %d worse than contiguous %d",
				row[0], row[1], prop, base)
		}
	}
}

func TestE4MorePortsHelpAndProposedWins(t *testing.T) {
	tb := runExp(t, E4Ports)
	// Group rows by workload; shifts must not increase with port count
	// for the proposed policy.
	prev := map[string]int64{}
	for _, row := range tb.Rows {
		name := row[0]
		prop := cellInt(t, row[4])
		program := cellInt(t, row[2])
		if prop > program {
			t.Errorf("%s ports=%s: proposed %d worse than program %d", name, row[1], prop, program)
		}
		if last, ok := prev[name]; ok && prop > last {
			t.Errorf("%s: proposed cost increased with more ports: %d -> %d", name, last, prop)
		}
		prev[name] = prop
		// The oracle schedule can never cost more than the greedy
		// nearest-port controller on the same placement.
		oracle := cellInt(t, row[6])
		if oracle > prop {
			t.Errorf("%s ports=%s: oracle %d worse than greedy controller %d",
				name, row[1], oracle, prop)
		}
	}
}

func TestE5RatiosAtLeastOne(t *testing.T) {
	tb := runExp(t, E5OptimalityGap)
	for _, row := range tb.Rows {
		opt := cellInt(t, row[2])
		for col := 3; col <= 5; col++ {
			c := cellInt(t, row[col])
			if c < opt {
				t.Errorf("%s: heuristic %d below optimum %d", row[0], c, opt)
			}
		}
		worst, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Fatal(err)
		}
		if worst < 1 {
			t.Errorf("%s: worst ratio %.2f < 1", row[0], worst)
		}
		// greedy+2opt specifically should be within 35% of optimal on
		// these small instances.
		g2 := cellInt(t, row[4])
		if opt > 0 && float64(g2) > 1.35*float64(opt) {
			t.Errorf("%s: greedy2opt gap too large: %d vs optimum %d", row[0], g2, opt)
		}
	}
}

func TestE6GainsNonNegative(t *testing.T) {
	tb := runExp(t, E6LatencyEnergy)
	for _, row := range tb.Rows {
		for _, col := range []int{3, 6} {
			s := row[col]
			if s == "n/a" {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
			if err != nil {
				t.Fatalf("gain cell %q: %v", s, err)
			}
			if v < -0.5 { // tolerate rounding noise only
				t.Errorf("%s: negative gain %s", row[0], s)
			}
		}
	}
}

func TestE7PortfolioBeatsAllSinglePartitions(t *testing.T) {
	tb := runExp(t, E7MultiTape)
	for _, row := range tb.Rows {
		portfolio := cellInt(t, row[6])
		for col := 2; col <= 5; col++ {
			if c := cellInt(t, row[col]); portfolio > c {
				t.Errorf("%s tapes=%s: portfolio %d worse than %s %d",
					row[0], row[1], portfolio, tb.Headers[col], c)
			}
		}
	}
}

func TestE8RowsComplete(t *testing.T) {
	tb := runExp(t, E8Runtime)
	// 7 sizes x 5 heuristics + 4 exact rows.
	if len(tb.Rows) != 39 {
		t.Errorf("expected 39 rows, got %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if _, err := strconv.ParseFloat(row[2], 64); err != nil {
			t.Errorf("bad time cell %q", row[2])
		}
	}
}

func TestE9CoversAllKnobs(t *testing.T) {
	tb := runExp(t, E9Ablation)
	knobs := map[string]bool{}
	for _, row := range tb.Rows {
		knobs[row[1]] = true
	}
	for _, want := range []string{"greedy-seed", "2opt-window", "windowdp", "anneal-cooling", "frequency-shape", "head-policy"} {
		if !knobs[want] {
			t.Errorf("missing knob %s", want)
		}
	}
}

func TestE10AdaptiveHelpsFromNaiveStart(t *testing.T) {
	tb := runExp(t, E10Adaptive)
	for _, row := range tb.Rows {
		if row[1] != "program" {
			continue
		}
		static := cellInt(t, row[2])
		trans := cellInt(t, row[3])
		// From the naive start, transposition must recover more shifts
		// than its migrations cost.
		if trans >= static {
			t.Errorf("%s: transpose %d not better than static %d from program start",
				row[0], trans, static)
		}
	}
	// Both workload cases and both starts present.
	if len(tb.Rows) != 4 {
		t.Errorf("expected 4 rows, got %d", len(tb.Rows))
	}
}

func TestE11PlacementStillHelpsUnderCache(t *testing.T) {
	tb := runExp(t, E11CacheFilter)
	for _, row := range tb.Rows {
		prog := cellInt(t, row[4])
		prop := cellInt(t, row[5])
		if prop > prog {
			t.Errorf("%s cache=%s: proposed %d worse than program %d",
				row[0], row[1], prop, prog)
		}
		// Even at the largest cache the reduction should stay above 15%
		// on these workloads.
		if prog > 0 && float64(prop) > 0.85*float64(prog) {
			t.Errorf("%s cache=%s: reduction collapsed (%d vs %d)",
				row[0], row[1], prop, prog)
		}
	}
	// 3 workloads x 4 cache sizes.
	if len(tb.Rows) != 12 {
		t.Errorf("expected 12 rows, got %d", len(tb.Rows))
	}
}

func TestE12DeterministicWorkloadsHaveZeroSpread(t *testing.T) {
	tb := runExp(t, E12Robustness)
	if len(tb.Rows) != 15 {
		t.Fatalf("expected 15 rows, got %d", len(tb.Rows))
	}
	deterministic := map[string]bool{
		"fir": true, "iir": true, "matmul": true, "fft": true,
		"stencil": true, "zigzag": true, "conv2d": true,
	}
	for _, row := range tb.Rows {
		if !deterministic[row[0]] {
			continue
		}
		if !strings.Contains(row[2], "± 0.0") {
			t.Errorf("%s: deterministic workload has nonzero spread: %s", row[0], row[2])
		}
	}
}

func TestE13WearBalancingNeverIncreasesMaxWear(t *testing.T) {
	tb := runExp(t, E13WearLeveling)
	for _, row := range tb.Rows {
		baseMax := cellInt(t, row[3])
		balMax := cellInt(t, row[5])
		if balMax > baseMax {
			t.Errorf("%s: balanced max wear %d exceeds min-total max %d",
				row[0], balMax, baseMax)
		}
		gain, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Fatalf("gain cell %q: %v", row[6], err)
		}
		if gain < 1 {
			t.Errorf("%s: lifetime gain %g < 1", row[0], gain)
		}
	}
}

func TestE14WordGranularDominatesObjectGranular(t *testing.T) {
	tb := runExp(t, E14Granularity)
	for _, row := range tb.Rows {
		program := cellInt(t, row[2])
		object := cellInt(t, row[3])
		word := cellInt(t, row[4])
		if word > object {
			t.Errorf("%s: word-granular %d worse than object-granular %d",
				row[0], word, object)
		}
		if word > program {
			t.Errorf("%s: word-granular %d worse than program order %d",
				row[0], word, program)
		}
	}
	if len(tb.Rows) != 4 {
		t.Errorf("expected 4 rows, got %d", len(tb.Rows))
	}
}

func TestE15ProposedCompressesTail(t *testing.T) {
	tb := runExp(t, E15TailLatency)
	// Rows alternate program/proposed per workload.
	for i := 0; i+1 < len(tb.Rows); i += 2 {
		prog, prop := tb.Rows[i], tb.Rows[i+1]
		if prog[0] != prop[0] || prog[1] != "program" || prop[1] != "proposed" {
			t.Fatalf("row pairing broken: %v / %v", prog, prop)
		}
		progP95 := cellInt(t, prog[4])
		propP95 := cellInt(t, prop[4])
		if propP95 > progP95 {
			t.Errorf("%s: proposed P95 %d worse than program %d", prog[0], propP95, progP95)
		}
		if cellInt(t, prop[5]) > cellInt(t, prog[5]) {
			t.Errorf("%s: proposed max worse than program", prog[0])
		}
	}
}

func TestE16OptimizedPortsNeverWorse(t *testing.T) {
	tb := runExp(t, E16PortPlacement)
	for _, row := range tb.Rows {
		spread := cellInt(t, row[2])
		opt := cellInt(t, row[3])
		if opt > spread {
			t.Errorf("%s ports=%s: optimized %d worse than spread %d",
				row[0], row[1], opt, spread)
		}
	}
	if len(tb.Rows) != 9 {
		t.Errorf("expected 9 rows, got %d", len(tb.Rows))
	}
}

func TestE17AwareMappingNeverHurts(t *testing.T) {
	tb := runExp(t, E17Variation)
	for _, row := range tb.Rows {
		// "mean ± sd": sorted matching is provably >= identity per
		// sample, so the mean ratio must be >= 1.
		mean, err := strconv.ParseFloat(strings.SplitN(row[2], " ", 2)[0], 64)
		if err != nil {
			t.Fatalf("cell %q: %v", row[2], err)
		}
		if mean < 1 {
			t.Errorf("%s sigma=%s: aware/oblivious mean %g < 1", row[0], row[1], mean)
		}
	}
	if len(tb.Rows) != 4 {
		t.Errorf("expected 4 rows, got %d", len(tb.Rows))
	}
}

func TestE18FaultExposureTracksShifts(t *testing.T) {
	tb := runExp(t, E18ShiftFaults)
	// At the highest fault rate, the proposed placement must see far
	// fewer fault events than program order (exposure ~ shifts) — under
	// BOTH the uniform and the pinning fault model.
	faultsAt := map[string]map[string]int64{} // workload/mode -> policy -> faults
	for _, row := range tb.Rows {
		if row[1] != "0.01" {
			continue
		}
		k := row[0] + "/" + row[2]
		if faultsAt[k] == nil {
			faultsAt[k] = map[string]int64{}
		}
		faultsAt[k][row[3]] = cellInt(t, row[5])
	}
	if len(faultsAt) != 4 {
		t.Fatalf("expected 4 workload/mode groups at p=0.01, got %d", len(faultsAt))
	}
	for k, m := range faultsAt {
		if m["proposed"] >= m["program"] {
			t.Errorf("%s: proposed fault count %d not below program %d",
				k, m["proposed"], m["program"])
		}
	}
	// Zero-probability rows must report zero faults, and pinning must
	// actually change the fault trajectory versus uniform somewhere.
	modesDiffer := false
	uniformFaults := map[string]int64{}
	for _, row := range tb.Rows {
		if row[1] == "0" && cellInt(t, row[5]) != 0 {
			t.Errorf("%s/%s: faults at p=0", row[0], row[3])
		}
		key := row[0] + "/" + row[1] + "/" + row[3]
		switch row[2] {
		case "uniform":
			uniformFaults[key] = cellInt(t, row[5])
		case "pinning":
			if cellInt(t, row[5]) != uniformFaults[key] {
				modesDiffer = true
			}
		}
	}
	if !modesDiffer {
		t.Error("pinning rows identical to uniform everywhere; mode plumbing is vacuous")
	}
}

func TestE19InterleavingShapes(t *testing.T) {
	tb := runExp(t, E19Interleaving)
	rows := map[string][]string{}
	for _, row := range tb.Rows {
		rows[row[0]] = row
	}
	// Sequential costs the same under every mapping (same per-tape walk).
	seq := rows["sequential"]
	if cellInt(t, seq[1]) != cellInt(t, seq[2]) || cellInt(t, seq[2]) != cellInt(t, seq[3]) {
		t.Errorf("sequential differs across mappings: %v", seq)
	}
	// Stride equal to the tape count defeats tape-major but not striping.
	s8 := rows["stride-8"]
	if cellInt(t, s8[2]) >= cellInt(t, s8[1]) {
		t.Errorf("stride-8: striped %s not below tape-major %s", s8[2], s8[1])
	}
	// Stride equal to the tape length is nearly free on tape-major.
	s64 := rows["stride-64"]
	if cellInt(t, s64[1]) >= cellInt(t, s64[2]) {
		t.Errorf("stride-64: tape-major %s not below striped %s", s64[1], s64[2])
	}
	// Random is mapping-independent to within a few percent.
	r := rows["random"]
	lo, hi := cellInt(t, r[1]), cellInt(t, r[1])
	for _, c := range []int64{cellInt(t, r[2]), cellInt(t, r[3])} {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if float64(hi) > 1.1*float64(lo) {
		t.Errorf("random spread too wide: %v", r)
	}
}

func TestE20ProposedMatchesOptimalOnSmallCFGs(t *testing.T) {
	tb := runExp(t, E20Instruction)
	for _, row := range tb.Rows {
		naive := cellInt(t, row[3])
		prop := cellInt(t, row[4])
		opt := cellInt(t, row[5])
		if prop > naive {
			t.Errorf("%s: proposed %d worse than naive %d", row[0], prop, naive)
		}
		if prop < opt {
			t.Errorf("%s: proposed %d below optimum %d (impossible)", row[0], prop, opt)
		}
		// These instances are small; the pipeline should be within 10%
		// of optimal.
		if float64(prop) > 1.1*float64(opt) {
			t.Errorf("%s: gap too large: %d vs %d", row[0], prop, opt)
		}
	}
	if len(tb.Rows) != 3 {
		t.Errorf("expected 3 rows, got %d", len(tb.Rows))
	}
}

func TestE21SchedulingShapes(t *testing.T) {
	tb := runExp(t, E21Scheduling)
	prevSSTF := map[string]int64{}
	for _, row := range tb.Rows {
		name := row[0]
		fifo := cellInt(t, row[2])
		sstf := cellInt(t, row[3])
		elev := cellInt(t, row[5])
		if sstf > fifo || elev > fifo {
			t.Errorf("%s window=%s: reordering worse than FIFO (%d/%d vs %d)",
				name, row[1], sstf, elev, fifo)
		}
		// More window never hurts SSTF on these workloads.
		if last, ok := prevSSTF[name]; ok && sstf > last {
			t.Errorf("%s: SSTF got worse with larger window: %d -> %d", name, last, sstf)
		}
		prevSSTF[name] = sstf
		if row[1] == "1" && (sstf != fifo || elev != fifo) {
			t.Errorf("%s: window 1 does not degenerate to FIFO", name)
		}
	}
	if len(tb.Rows) != 8 {
		t.Errorf("expected 8 rows, got %d", len(tb.Rows))
	}
}

func TestE22ProfileGeneralizes(t *testing.T) {
	tb := runExp(t, E22Profile)
	for _, row := range tb.Rows {
		program := cellInt(t, row[1])
		profile := cellInt(t, row[2])
		oracle := cellInt(t, row[3])
		if oracle > profile {
			// The oracle sees strictly more information; allow only tiny
			// heuristic noise in the other direction.
			if float64(oracle) > 1.02*float64(profile) {
				t.Errorf("%s: oracle %d notably worse than profile %d", row[0], oracle, profile)
			}
		}
		switch row[0] {
		case "fir", "histogram", "zipf":
			// Stationary workloads: profile placement must retain most
			// of the oracle's reduction.
			if program == profile {
				t.Errorf("%s: profile placement achieved nothing", row[0])
			}
			profRed := float64(program-profile) / float64(program)
			oraRed := float64(program-oracle) / float64(program)
			if profRed < oraRed-0.10 {
				t.Errorf("%s: profile reduction %.2f far below oracle %.2f",
					row[0], profRed, oraRed)
			}
		case "phased":
			// Drift must visibly hurt the profile placement.
			if profile <= oracle {
				t.Errorf("phased: profile %d not worse than oracle %d", profile, oracle)
			}
		}
	}
	if len(tb.Rows) != 4 {
		t.Errorf("expected 4 rows, got %d", len(tb.Rows))
	}
}

func TestAllRunnersRegistered(t *testing.T) {
	all := All()
	if len(all) != 22 {
		t.Fatalf("expected 22 experiments, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Name == "" || e.Run == nil {
			t.Errorf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestTableFormat(t *testing.T) {
	tb := &Table{
		ID:      "EX",
		Title:   "demo",
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"1", "x,y"}, {"2", `he said "hi"`}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tb.Format(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "EX — demo") || !strings.Contains(out, "note: a note") {
		t.Errorf("format output missing pieces:\n%s", out)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := &Table{
		ID:      "EX",
		Title:   "demo",
		Headers: []string{"a", "b|c"},
		Rows:    [][]string{{"1", "x|y"}},
		Notes:   []string{"note|pipe"},
	}
	var buf bytes.Buffer
	if err := tb.Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## EX — demo", "| a | b\\|c |", "| --- | --- |", "| 1 | x\\|y |", "> note\\|pipe"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestPctHelper(t *testing.T) {
	if got := pct(100, 60); got != "40.0%" {
		t.Errorf("pct = %s", got)
	}
	if got := pct(0, 5); got != "n/a" {
		t.Errorf("pct zero base = %s", got)
	}
}
