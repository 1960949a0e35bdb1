package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func requireGo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
}

func unsuppressed(findings []finding) []finding {
	var out []finding
	for _, f := range findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// TestDogfoodRepoIsClean is the committed form of the CI gate: the whole
// module must produce zero unsuppressed diagnostics.
func TestDogfoodRepoIsClean(t *testing.T) {
	requireGo(t)
	findings, _, _, err := collect("", []string{"repro/..."})
	if err != nil {
		t.Fatal(err)
	}
	if bad := unsuppressed(findings); len(bad) > 0 {
		for _, f := range bad {
			t.Error(f)
		}
		t.Fatal("dwmlint reports unsuppressed diagnostics on the repo; run `make lint` for the list")
	}
}

func TestOnlySubsetRuns(t *testing.T) {
	requireGo(t)
	findings, _, nanalyzers, err := collect("maporder", []string{"repro/internal/graph"})
	if err != nil {
		t.Fatal(err)
	}
	if bad := unsuppressed(findings); len(bad) > 0 {
		t.Fatalf("maporder reports diagnostics on repro/internal/graph: %v", bad)
	}
	if nanalyzers != 1 {
		t.Fatalf("-only maporder ran %d analyzers, want 1", nanalyzers)
	}
}

// TestTestOnlyIndexesBenchmark checks that testonly's reference index
// spans the nested benchmark module whatever packages are linted:
// Graph.TotalWeight and Server.Handler have no caller in the main
// module outside tests, only in benchmark/.
func TestTestOnlyIndexesBenchmark(t *testing.T) {
	requireGo(t)
	findings, _, _, err := collect("testonly", []string{"repro/internal/graph", "repro/internal/serve"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if strings.Contains(f.Message, "Graph.TotalWeight ") || strings.Contains(f.Message, "Server.Handler ") {
			t.Errorf("benchmark-only API flagged: %s", f)
		}
	}
}

func TestUnknownAnalyzerFails(t *testing.T) {
	if _, _, _, err := collect("nosuch", nil); err == nil {
		t.Fatal("unknown analyzer accepted")
	}
}

// TestBaselineFiltersKnownFindings checks the multiset semantics of
// -baseline: findings present in the baseline are not new, an extra
// occurrence of a known finding is, and suppressed findings never count.
func TestBaselineFiltersKnownFindings(t *testing.T) {
	known := finding{File: "a.go", Line: 3, Analyzer: "walltime", Message: "reads the wall clock"}
	moved := known
	moved.Line = 99 // same finding after unrelated edits moved it
	other := finding{File: "b.go", Line: 1, Analyzer: "barego", Message: "naked goroutine"}
	quiet := finding{File: "c.go", Line: 2, Analyzer: "maporder", Message: "map range", Suppressed: true}

	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(path, []byte(`[{"file":"a.go","line":3,"analyzer":"walltime","message":"reads the wall clock"}]`), 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := newFindings(path, []finding{moved, other, quiet})
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != 1 || fresh[0].Analyzer != "barego" {
		t.Fatalf("newFindings = %v, want just the barego finding", fresh)
	}

	// A second occurrence of the baselined finding is new: the baseline
	// budget is a multiset, not a set.
	fresh, err = newFindings(path, []finding{known, moved})
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != 1 {
		t.Fatalf("duplicate baselined finding not reported as new: %v", fresh)
	}
}

func TestBaselineRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newFindings(path, nil); err == nil {
		t.Fatal("corrupt baseline accepted")
	}
}

// TestRecordBenchPreservesReport checks the carry contract: writing
// lint_bench into an existing dwmbench report must not drop its other
// keys, and a rerun replaces the entry.
func TestRecordBenchPreservesReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(path, []byte(`{"seed": 1, "experiments": [{"id": "E1"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	findings := []finding{{Analyzer: "walltime", Suppressed: true}, {Analyzer: "barego"}}
	if err := recordBench(path, findings, 7, 2, 1500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"seed"`, `"E1"`, `"lint_bench"`, `"wall_ns"`, `"packages": 7`, `"analyzers": 2`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("report after recordBench lacks %s:\n%s", want, data)
		}
	}
	if err := recordBench(path, nil, 9, 9, time.Second); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	if !strings.Contains(string(data), `"packages": 9`) || strings.Contains(string(data), `"packages": 7`) {
		t.Fatalf("rerun did not replace lint_bench:\n%s", data)
	}
}
