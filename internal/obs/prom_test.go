package obs

import (
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"core.anneal.iterations": "dwm_core_anneal_iterations",
		"serve.queue.depth":      "dwm_serve_queue_depth",
		"a-b c":                  "dwm_a_b_c",
		"9lives":                 "dwm_9lives",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.jobs.accepted").Add(3)
	r.Gauge("serve.queue.depth").Set(2)
	r.Histogram("serve.job.wall_ms", []float64{10, 100}).Observe(5)
	var b strings.Builder
	if err := r.Snapshot().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE dwm_serve_jobs_accepted counter\ndwm_serve_jobs_accepted 3\n",
		"# TYPE dwm_serve_queue_depth gauge\ndwm_serve_queue_depth 2\n",
		"# TYPE dwm_serve_job_wall_ms histogram\ndwm_serve_job_wall_ms_bucket{le=\"10\"} 1\n",
		"dwm_serve_job_wall_ms_sum 5\ndwm_serve_job_wall_ms_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// The exposition is deterministic: same snapshot, same bytes.
func TestWritePromDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"b.z", "a.x", "a.y"} {
		r.Counter(n).Inc()
		r.Gauge(n + ".g").Set(1)
	}
	s := r.Snapshot()
	var first string
	for i := 0; i < 5; i++ {
		var b strings.Builder
		if err := s.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b.String()
		} else if b.String() != first {
			t.Fatal("exposition order unstable across renders")
		}
	}
	if !strings.Contains(first, "dwm_a_x") || strings.Index(first, "dwm_a_x") > strings.Index(first, "dwm_b_z") {
		t.Errorf("counters not in lexical order:\n%s", first)
	}
}

func TestValidMetricName(t *testing.T) {
	for name, want := range map[string]bool{
		"dwm_core_anneal_iterations": true,
		"a:b_c9":                     true,
		"_leading":                   true,
		"9leading":                   false,
		"":                           false,
		"has space":                  false,
		"has-dash":                   false,
		`quote"d`:                    false,
	} {
		if got := ValidMetricName(name); got != want {
			t.Errorf("ValidMetricName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	for in, want := range map[string]string{
		`plain`:      `plain`,
		`back\slash`: `back\\slash`,
		`qu"ote`:     `qu\"ote`,
		"new\nline":  `new\nline`,
	} {
		if got := escapeLabelValue(in); got != want {
			t.Errorf("escapeLabelValue(%q) = %q, want %q", in, got, want)
		}
	}
}

// Every exposition the writer produces must pass its own conformance
// checker — including histograms and hostile instrument names.
func TestWritePromConformance(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.jobs.accepted").Add(3)
	r.Counter(`weird name"with\junk` + "\nnewline").Inc()
	r.Gauge("serve.queue.depth").Set(-2)
	r.Histogram("serve.job.wall_ms", LatencyBoundsMS).Observe(5)
	h := r.Histogram("sim.shift_distance", []float64{1, 8, 64})
	for _, v := range []int64{0, 3, 9, 70, 1000} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.Snapshot().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if err := LintExposition(strings.NewReader(b.String())); err != nil {
		t.Fatalf("writer output fails its own conformance checker: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "dwm_weird_name_with_junk_newline 1") {
		t.Errorf("hostile instrument name not sanitized:\n%s", b.String())
	}
}

func TestLintExpositionCatchesViolations(t *testing.T) {
	for name, payload := range map[string]string{
		"sample without TYPE": "dwm_x 1\n",
		"invalid name":        "# TYPE dwm-bad counter\ndwm-bad 1\n",
		"unknown type":        "# TYPE dwm_x rate\ndwm_x 1\n",
		"duplicate TYPE":      "# TYPE dwm_x counter\ndwm_x 1\n# TYPE dwm_x counter\n",
		"duplicate series":    "# TYPE dwm_x counter\ndwm_x 1\ndwm_x 2\n",
		"malformed sample":    "# TYPE dwm_x counter\ndwm_x one\n",
		"bad label pair":      "# TYPE dwm_x histogram\ndwm_x_bucket{le=1} 1\n",
		"unescaped quote":     "# TYPE dwm_x histogram\ndwm_x_bucket{le\"=\"1\"} 1\n",
		"no +Inf bucket": "# TYPE dwm_x histogram\n" +
			`dwm_x_bucket{le="1"} 1` + "\ndwm_x_sum 1\ndwm_x_count 1\n",
		"no sum": "# TYPE dwm_x histogram\n" +
			`dwm_x_bucket{le="+Inf"} 1` + "\ndwm_x_count 1\n",
		"no count": "# TYPE dwm_x histogram\n" +
			`dwm_x_bucket{le="+Inf"} 1` + "\ndwm_x_sum 1\n",
		"inf != count": "# TYPE dwm_x histogram\n" +
			`dwm_x_bucket{le="+Inf"} 2` + "\ndwm_x_sum 1\ndwm_x_count 1\n",
		"decreasing buckets": "# TYPE dwm_x histogram\n" +
			`dwm_x_bucket{le="1"} 5` + "\n" + `dwm_x_bucket{le="+Inf"} 3` + "\ndwm_x_sum 1\ndwm_x_count 3\n",
	} {
		if err := LintExposition(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: lint accepted\n%s", name, payload)
		}
	}
	ok := "# some comment\n# TYPE dwm_ok counter\ndwm_ok 5\n" +
		"# TYPE dwm_h histogram\n" +
		`dwm_h_bucket{le="0.5"} 1` + "\n" + `dwm_h_bucket{le="+Inf"} 2` + "\n" +
		"dwm_h_sum 3\ndwm_h_count 2\n" +
		"# TYPE dwm_g gauge\ndwm_g -7\n"
	if err := LintExposition(strings.NewReader(ok)); err != nil {
		t.Errorf("lint rejected a conforming exposition: %v", err)
	}
}
