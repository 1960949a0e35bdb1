package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestBuildPlanDeterministic(t *testing.T) {
	sc := SmokeScenario()
	a, err := BuildPlan(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two plans from the same scenario differ")
	}
	sc2 := SmokeScenario()
	sc2.Seed = 43
	c, err := BuildPlan(sc2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("changing the seed left the plan unchanged")
	}
}

func TestSmokeScenarioShape(t *testing.T) {
	sc := SmokeScenario()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != sc.Requests {
		t.Fatalf("plan has %d requests, want %d", len(plan), sc.Requests)
	}
	kinds := map[string]int{}
	var cacheReqs []*serve.PlaceRequest
	for _, pr := range plan {
		kinds[pr.Kind]++
		switch pr.Kind {
		case kindPlace, kindCacheHit:
			if pr.Place == nil || pr.TraceID == "" {
				t.Fatalf("request %d missing place payload or trace", pr.Index)
			}
			if pr.Place.Tenant != pr.Tenant {
				t.Fatalf("request %d tenant mismatch", pr.Index)
			}
			if pr.Kind == kindCacheHit {
				cacheReqs = append(cacheReqs, pr.Place)
			}
		case kindStream:
			if pr.Stream == nil || len(pr.Stream.Batches) == 0 {
				t.Fatalf("request %d missing stream payload", pr.Index)
			}
		}
	}
	for _, k := range []string{kindPlace, kindCacheHit, kindStream} {
		if kinds[k] == 0 {
			t.Errorf("smoke plan has no %s requests: %v", k, kinds)
		}
	}
	// Every cache_hit request is the same computation (tenant aside), so
	// repeats are served from the placement cache.
	for _, r := range cacheReqs[1:] {
		if serve.RequestKey(*r) != serve.RequestKey(*cacheReqs[0]) {
			t.Fatal("cache_hit requests do not share one identity")
		}
	}
}

func TestParseScenarioRejectsBadInput(t *testing.T) {
	for name, payload := range map[string]string{
		"unknown field":  `{"name":"x","requests":1,"mix":[{"kind":"place","weight":1}],"bogus":1}`,
		"no requests":    `{"name":"x","mix":[{"kind":"place","weight":1}]}`,
		"empty mix":      `{"name":"x","requests":1,"mix":[]}`,
		"bad kind":       `{"name":"x","requests":1,"mix":[{"kind":"nope","weight":1}]}`,
		"bad workload":   `{"name":"x","requests":1,"mix":[{"kind":"place","weight":1,"workload":"nope"}]}`,
		"zero weight":    `{"name":"x","requests":1,"mix":[{"kind":"place","weight":0}]}`,
		"negative ramp":  `{"name":"x","requests":1,"mix":[{"kind":"place","weight":1}],"ramp":[{"requests":1,"rps":-1}]}`,
		"zero ramp reqs": `{"name":"x","requests":1,"mix":[{"kind":"place","weight":1}],"ramp":[{"requests":0,"rps":1}]}`,
		"valid ramp":     `{"name":"x","requests":1,"mix":[{"kind":"place","weight":1}],"ramp":[{"requests":1,"rps":5}]}`,
		"mix policy":     `{"name":"x","requests":1,"mix":[{"kind":"place","weight":1,"policy":"proposed"}]}`,
	} {
		if _, err := ParseScenario(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	good := `{"name":"x","seed":1,"requests":2,"mix":[{"kind":"place","weight":1}]}`
	if _, err := ParseScenario(strings.NewReader(good)); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

func TestBuildReportAndSLO(t *testing.T) {
	sc := &Scenario{
		Name: "t", Seed: 1, Requests: 4, Concurrency: 2,
		Mix: []MixEntry{{Kind: kindPlace, Weight: 1}},
		SLO: &SLOBudget{MaxErrorRate: 0.1, MaxRetryRate: 0.5, MaxP95MS: 100, MinThroughputRPS: 1},
	}
	samples := []Sample{
		{Index: 0, Kind: kindPlace, Tenant: "a", TraceID: "t0", ClientMS: 10, ServerMS: 5},
		{Index: 1, Kind: kindPlace, Tenant: "a", TraceID: "t1", ClientMS: 20, ServerMS: 10},
		{Index: 2, Kind: kindPlace, Tenant: "b", TraceID: "t2", ClientMS: 500, ServerMS: 400},
		{Index: 3, Kind: kindPlace, Tenant: "b", Err: "boom"},
	}
	retries := RetryCount{Backpressure429: 3}
	r := BuildReport(sc, samples, retries, 2000, "", "")
	if r.Errors != 1 || r.Overall.Count != 3 {
		t.Fatalf("errors=%d count=%d", r.Errors, r.Overall.Count)
	}
	if r.Throughput != 2 {
		t.Fatalf("throughput = %g, want 2 (4 requests / 2s)", r.Throughput)
	}
	if r.Overall.P95MS != 500 || r.Overall.MaxMS != 500 {
		t.Fatalf("p95=%g max=%g", r.Overall.P95MS, r.Overall.MaxMS)
	}
	if len(r.Slowest) != 3 || r.Slowest[0].TraceID != "t2" {
		t.Fatalf("slowest = %+v", r.Slowest)
	}
	if r.SLO == nil || r.SLO.Pass {
		t.Fatalf("SLO passed despite violations: %+v", r.SLO)
	}
	// Expect: error rate 0.25 > 0.1, retry rate 0.75 > 0.5, p95 500 > 100.
	// Throughput 2 >= 1 passes.
	if len(r.SLO.Violations) != 3 {
		t.Fatalf("got %d violations, want 3: %v", len(r.SLO.Violations), r.SLO.Violations)
	}
	// A lenient budget passes the same run.
	sc.SLO = &SLOBudget{MaxErrorRate: 0.5, MaxP95MS: 1000}
	if r2 := BuildReport(sc, samples, RetryCount{}, 2000, "", ""); r2.SLO == nil || !r2.SLO.Pass {
		t.Fatalf("lenient budget failed: %+v", r2.SLO)
	}
}

func TestMetricsDiff(t *testing.T) {
	before := "# TYPE dwm_serve_jobs_accepted counter\n" +
		"dwm_serve_jobs_accepted 10\n" +
		`dwm_serve_tenant_requests{tenant="a",outcome="accepted"} 4` + "\n" +
		"dwm_serve_wall_ms_bucket{le=\"1\"} 2\n" +
		"dwm_other_thing 5\n"
	after := "# TYPE dwm_serve_jobs_accepted counter\n" +
		"dwm_serve_jobs_accepted 13\n" +
		`dwm_serve_tenant_requests{tenant="a",outcome="accepted"} 9 # {trace_id="abc"} 1` + "\n" +
		"dwm_serve_wall_ms_bucket{le=\"1\"} 7\n" +
		"dwm_other_thing 9\n"
	diff := metricsDiff(before, after)
	if diff["dwm_serve_jobs_accepted"] != 3 {
		t.Fatalf("accepted delta = %d", diff["dwm_serve_jobs_accepted"])
	}
	// The labeled series diffs despite the exemplar annotation.
	if diff[`dwm_serve_tenant_requests{tenant="a",outcome="accepted"}`] != 5 {
		t.Fatalf("labeled delta missing: %v", diff)
	}
	// Buckets and non-dwm_serve families are excluded.
	for k := range diff {
		if strings.Contains(k, "_bucket") || strings.HasPrefix(k, "dwm_other") {
			t.Fatalf("diff includes excluded series %q", k)
		}
	}
	if metricsDiff("x 1\n", "") != nil {
		t.Fatal("empty after-scrape should yield nil diff")
	}
}

func TestRenderTable(t *testing.T) {
	r := &Report{
		Scenario: "smoke", Requests: 2, Concurrency: 1, ElapsedMS: 1000, Throughput: 2,
		Overall: KindStats{Count: 2, P50MS: 1, P95MS: 2, P99MS: 2, MaxMS: 2},
		Kinds:   map[string]KindStats{"place": {Count: 2}},
		Slowest: []SlowSample{{Kind: "place", Tenant: "a", TraceID: "abc", ClientMS: 2}},
		SLO:     &SLOResult{Pass: false, Violations: []string{"p95 too high"}},
	}
	out := RenderTable(r)
	for _, want := range []string{"scenario smoke", "place", "trace=abc", "SLO: FAIL", "p95 too high"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestRunEndToEnd drives the full binary path — plan, worker pool,
// metrics scrapes, report, SLO gate — against a real in-process server.
func TestRunEndToEnd(t *testing.T) {
	s, err := serve.New(serve.Options{Workers: 2, QueueCap: 64, EventBuffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	base := "http://" + ln.Addr().String()

	out := filepath.Join(t.TempDir(), "BENCH_dwmload.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-addr", base, "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("dwmload exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if r.Requests != SmokeScenario().Requests || r.Errors != 0 {
		t.Fatalf("requests=%d errors=%d", r.Requests, r.Errors)
	}
	if r.Overall.P95MS <= 0 || r.Overall.P50MS <= 0 {
		t.Fatalf("percentiles not measured: %+v", r.Overall)
	}
	if r.CacheHits == 0 {
		t.Error("no cache hits despite cache_hit mix entries")
	}
	if r.SLO == nil || !r.SLO.Pass {
		t.Fatalf("smoke SLO failed: %+v", r.SLO)
	}
	if len(r.Slowest) == 0 {
		t.Fatal("no slowest samples in report")
	}
	// The slowest place/cache_hit sample names a trace the server knows.
	var traced string
	for _, sl := range r.Slowest {
		if sl.TraceID != "" {
			traced = sl.TraceID
			break
		}
	}
	if traced == "" {
		t.Fatal("no trace ID among slowest samples")
	}
	if !strings.Contains(stdout.String(), "scenario smoke") {
		t.Errorf("table output missing scenario line:\n%s", stdout.String())
	}
}

func TestLoadScenarioFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sc.json")
	payload := `{"name":"file","seed":7,"requests":3,"mix":[{"kind":"place","weight":1}]}`
	if err := os.WriteFile(path, []byte(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := loadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "file" || sc.Requests != 3 {
		t.Fatalf("loaded %+v", sc)
	}
	if sc, err := loadScenario(""); err != nil || !reflect.DeepEqual(sc, SmokeScenario()) {
		t.Fatalf("empty path: got %+v, %v; want the smoke scenario", sc, err)
	}
	if _, err := loadScenario(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing scenario file accepted")
	}
}
