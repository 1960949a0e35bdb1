package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// declared reads the metric catalogs BENCHMARK.json declares at the
// repository root.
func declared(t *testing.T) (e2e, layers []metricDef) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].Name {
			t.Fatalf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, specs[i].Name)
		}
	}
	return doc.EndToEnd, doc.PerLayer
}

// resultLine parses the JSON object printResult ends with.
func resultLine(t *testing.T, out string) (line struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return line
}

// checkReported asserts the run passed its output checks and printed
// exactly the declared metrics, each with its declared unit, in the
// table and in the result line.
func checkReported(t *testing.T, res *result, traced bool, defs []metricDef) {
	t.Helper()
	var out bytes.Buffer
	printResult(&out, res, traced)
	line := resultLine(t, out.String())
	if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", line.Correct, line.Attempted, line.Failed, res.Errors)
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("result line has %d metrics, BENCHMARK.json declares %d", len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
		}
		if !strings.Contains(out.String(), d.Name) {
			t.Errorf("table does not print %s", d.Name)
		}
	}
}

// TestQuickRuns runs every workload for about a second with a small pool
// and checks its report against BENCHMARK.json. serve-place runs the
// traced pass, which reports the end-to-end metrics as well.
func TestQuickRuns(t *testing.T) {
	e2e, layers := declared(t)
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			traced := s.Name == "serve-place"
			cfg := config{Seed: 1, Seconds: 1, Trace: traced, Scratch: t.TempDir(), Pool: 2, SetupReps: 1}
			res, err := runWorkload(context.Background(), s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if traced {
				checkReported(t, res, true, layers)
				checkTraced(t, res)
			} else {
				checkReported(t, res, false, e2e)
			}
			for _, m := range res.EndToEnd {
				if m.Absent || m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v (absent %v), want a positive value", m.Name, m.Value, m.Absent)
				}
			}
		})
	}
}

// checkTraced checks a traced serve-place run: client and handler spans
// link up, the client polled for its placements, and the spans load back
// from JSONL.
func checkTraced(t *testing.T, res *result) {
	t.Helper()
	got := map[string]metric{}
	for _, m := range res.PerLayer {
		got[m.Name] = m
	}
	if m := got["client.polls_per_job"]; m.Absent || m.Value < 1 {
		t.Errorf("client.polls_per_job = %+v, want >= 1 on serve-place", m)
	}
	if m := got["serve.unattributed_ms_mean"]; m.Absent {
		t.Error("no handler span was linked to its client round trip")
	}

	var buf bytes.Buffer
	if err := writeJSONL(&buf, res.Spans); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var s spanRecord
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.ID == 0 || s.End < s.Start {
			t.Fatalf("span line %d: %v %+v", n, err, s)
		}
		n++
	}
	if n != len(res.Spans) || n == 0 {
		t.Fatalf("read back %d spans, wrote %d", n, len(res.Spans))
	}
}

// encodePlan renders everything a workload would send for a seed: offline
// pools or serving kernels and schedules.
func encodePlan(s spec, seed int64, secs float64, pool int) ([]byte, error) {
	if s.Kind == kindOffline {
		ins, err := offlineInputs(s, seed, pool)
		if err != nil {
			return nil, err
		}
		return json.Marshal(ins)
	}
	p, err := planServe(s, seed, secs)
	if err != nil {
		return nil, err
	}
	return json.Marshal(p)
}

// TestPlanIsPureFunctionOfSeed checks that every workload's inputs and
// arrival schedule depend on the seed alone.
func TestPlanIsPureFunctionOfSeed(t *testing.T) {
	for _, s := range specs {
		a, err := encodePlan(s, 7, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := encodePlan(s, 7, 2, 4)
		c, _ := encodePlan(s, 8, 2, 4)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed planned different inputs", s.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds planned identical inputs", s.Name)
		}
	}
}
