package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func testOpts(seed int64, md bool, workers int, only, jsonPath string) options {
	return options{seed: seed, md: md, workers: workers, only: only, jsonPath: jsonPath}
}

func TestRunOnlyFastExperiments(t *testing.T) {
	if err := run(context.Background(), testOpts(1, false, 1, "E1", "")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), testOpts(1, false, 1, "e1,E5", "")); err != nil {
		t.Fatal(err)
	}
}

func TestRunMarkdown(t *testing.T) {
	if err := run(context.Background(), testOpts(1, true, 1, "E1", "")); err != nil {
		t.Fatal(err)
	}
}

func TestRunWorkers(t *testing.T) {
	if err := run(context.Background(), testOpts(1, false, 4, "E1,E5,E19", "")); err != nil {
		t.Fatal(err)
	}
}

func TestRunNoMatch(t *testing.T) {
	if err := run(context.Background(), testOpts(1, false, 1, "E99", "")); err == nil {
		t.Error("unknown experiment ID accepted")
	}
}

func readReport(t *testing.T, path string) benchReport {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run(context.Background(), testOpts(1, false, 1, "E1,E5", path)); err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, path)
	if len(rep.Experiments) != 2 || rep.Experiments[0].ID != "E1" {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if rep.Experiments[0].DeltaPct != nil {
		t.Error("first run must not report a delta")
	}
	if rep.Metrics == nil || rep.Metrics.Counters["bench.runner.experiments_ok"] == 0 {
		t.Error("report missing the metrics snapshot")
	}

	// Second run against the stored report yields per-experiment deltas.
	if err := run(context.Background(), testOpts(1, false, 1, "E1,E5", path)); err != nil {
		t.Fatal(err)
	}
	for _, e := range readReport(t, path).Experiments {
		if e.DeltaPct == nil {
			t.Errorf("%s: missing delta on second run", e.ID)
		}
	}
}

// Regression: -json combined with -only used to overwrite the report
// with only the selected experiments, destroying the wall-time history
// of the others. Entries for experiments not run this invocation must
// be preserved from the prior report.
func TestRunJSONOnlyMergesPriorEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run(context.Background(), testOpts(1, false, 1, "E1,E5", path)); err != nil {
		t.Fatal(err)
	}
	before := readReport(t, path)
	if len(before.Experiments) != 2 {
		t.Fatalf("seed report has %d entries, want 2", len(before.Experiments))
	}
	var e5Wall int64
	for _, e := range before.Experiments {
		if e.ID == "E5" {
			e5Wall = e.WallNS
		}
	}

	// Run only E1: E5's entry must survive, byte-for-byte wall time.
	if err := run(context.Background(), testOpts(1, false, 1, "E1", path)); err != nil {
		t.Fatal(err)
	}
	after := readReport(t, path)
	if len(after.Experiments) != 2 {
		t.Fatalf("merged report has %d entries, want 2: %+v", len(after.Experiments), after.Experiments)
	}
	ids := map[string]expReport{}
	for _, e := range after.Experiments {
		ids[e.ID] = e
	}
	e5, ok := ids["E5"]
	if !ok {
		t.Fatal("-only E1 clobbered the E5 entry")
	}
	if e5.WallNS != e5Wall {
		t.Errorf("E5 wall time rewritten: %d -> %d", e5Wall, e5.WallNS)
	}
	if e5.DeltaPct != nil {
		t.Error("stale E5 entry must not carry a delta from this run")
	}
	if e1 := ids["E1"]; e1.DeltaPct == nil {
		t.Error("E1 was re-run against a prior sample and must carry a delta")
	}
	// TotalNS covers the whole merged report.
	if want := ids["E1"].WallNS + e5.WallNS; after.TotalNS != want {
		t.Errorf("TotalNS = %d, want %d", after.TotalNS, want)
	}
	// Canonical suite order: E1 before E5.
	if after.Experiments[0].ID != "E1" || after.Experiments[1].ID != "E5" {
		t.Errorf("merged order = %s,%s, want E1,E5", after.Experiments[0].ID, after.Experiments[1].ID)
	}
}

// A run canceled before any experiment starts must fail nonzero but
// leave the prior report's history intact (the SIGINT path).
func TestRunCanceledPreservesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run(context.Background(), testOpts(1, false, 1, "E1,E5", path)); err != nil {
		t.Fatal(err)
	}
	before := readReport(t, path)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, testOpts(1, false, 1, "E1,E5", path)); err == nil {
		t.Fatal("canceled run must return an error")
	}
	after := readReport(t, path)
	if len(after.Experiments) != len(before.Experiments) {
		t.Fatalf("canceled run changed entry count: %d -> %d",
			len(before.Experiments), len(after.Experiments))
	}
	for i := range after.Experiments {
		if after.Experiments[i].ID != before.Experiments[i].ID ||
			after.Experiments[i].WallNS != before.Experiments[i].WallNS {
			t.Errorf("entry %d rewritten by canceled run: %+v -> %+v",
				i, before.Experiments[i], after.Experiments[i])
		}
	}
}

// lint_bench entries written by `dwmlint -bench` must survive dwmbench
// report rewrites — the same carry-across-merges contract delta_bench
// has, since dwmbench never measures the lint run itself.
func TestRunCarriesLintBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run(context.Background(), testOpts(1, false, 1, "E1", path)); err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, path)
	rep.LintBench = &lintBenchReport{Packages: 38, Analyzers: 8, Suppressed: 23, WallNS: 12345}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := run(context.Background(), testOpts(1, false, 1, "E1", path)); err != nil {
		t.Fatal(err)
	}
	after := readReport(t, path)
	if after.LintBench == nil {
		t.Fatal("rewriting the report dropped the lint_bench entry")
	}
	if after.LintBench.WallNS != 12345 || after.LintBench.Packages != 38 {
		t.Errorf("lint_bench rewritten: %+v", after.LintBench)
	}
}
