package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterVecBasics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("serve.tenant.requests", []string{"tenant", "outcome"})
	v.With("alpha", "accepted").Add(3)
	v.With("beta", "rejected").Inc()
	v.With("alpha", "accepted").Inc() // same child

	s := r.Snapshot().LabeledCounters["serve.tenant.requests"]
	if len(s.Series) != 2 {
		t.Fatalf("got %d series, want 2", len(s.Series))
	}
	// Snapshot is sorted by label values: alpha before beta.
	if s.Series[0].Values[0] != "alpha" || s.Series[0].Value != 4 {
		t.Fatalf("series[0] = %+v", s.Series[0])
	}
	if s.Series[1].Values[0] != "beta" || s.Series[1].Value != 1 {
		t.Fatalf("series[1] = %+v", s.Series[1])
	}
	if got := len(s.Keys); got != 2 || s.Keys[0] != "tenant" {
		t.Fatalf("keys = %v", s.Keys)
	}
}

func TestCounterVecArityPanics(t *testing.T) {
	v := newCounterVec("v", []string{"a", "b"}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestVecInvalidKeysPanic(t *testing.T) {
	for _, keys := range [][]string{
		{},
		{"bad-dash"},
		{"__reserved"},
		{"dup", "dup"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("keys %v did not panic", keys)
				}
			}()
			newCounterVec("v", keys, 0)
		}()
	}
}

// TestCounterVecOverflow pins the cardinality contract: past the cap,
// every unseen combination collapses into the single _other child, so a
// hostile label source cannot grow the series set without bound — but
// the totals stay honest.
func TestCounterVecOverflow(t *testing.T) {
	v := newCounterVec("v", []string{"tenant"}, 2)
	v.With("a").Inc()
	v.With("b").Inc()
	v.With("c").Add(5) // over cap: lands in _other
	v.With("d").Add(2) // same overflow child
	if v.With("c") != v.With("d") {
		t.Fatal("overflow combinations did not share one child")
	}
	// Known combinations keep resolving to their own child past the cap.
	v.With("a").Inc()

	s := v.snapshot()
	if len(s.Series) != 3 {
		t.Fatalf("got %d series, want 3 (a, b, _other)", len(s.Series))
	}
	byTenant := map[string]int64{}
	for _, ls := range s.Series {
		byTenant[ls.Values[0]] = ls.Value
	}
	if byTenant["a"] != 2 || byTenant["b"] != 1 || byTenant[OverflowLabel] != 7 {
		t.Fatalf("series totals = %v", byTenant)
	}
}

func TestHistogramVecOverflow(t *testing.T) {
	v := newHistogramVec("v", []string{"tenant"}, []float64{10, 100}, 1)
	v.With("a").Observe(5)
	v.With("b").Observe(50) // over cap
	v.With("c").Observe(50)
	s := v.snapshot()
	if len(s.Series) != 2 {
		t.Fatalf("got %d series, want 2 (a, _other)", len(s.Series))
	}
	// Sorted: "_other" < "a".
	if s.Series[0].Values[0] != OverflowLabel || s.Series[0].Hist.Count != 2 {
		t.Fatalf("overflow series = %+v", s.Series[0])
	}
	if s.Series[1].Values[0] != "a" || s.Series[1].Hist.Count != 1 {
		t.Fatalf("series a = %+v", s.Series[1])
	}
}

func TestVecResetKeepsHandles(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("c.v", []string{"k"})
	hv := r.HistogramVec("h.v", []string{"k"}, []float64{10})
	c := cv.With("x")
	h := hv.With("x")
	c.Add(5)
	h.ObserveTrace(3, "abc")
	r.Reset()
	if c.Value() != 0 {
		t.Fatalf("counter not reset: %d", c.Value())
	}
	if st := h.Stats(); st.Count != 0 || st.Exemplars != nil {
		t.Fatalf("histogram not reset: %+v", st)
	}
	// Handles stay live after reset.
	c.Inc()
	h.Observe(1)
	if c.Value() != 1 || h.Stats().Count != 1 {
		t.Fatal("handles dead after reset")
	}
}

func TestVecConcurrent(t *testing.T) {
	v := newCounterVec("v", []string{"tenant"}, 4)
	tenants := []string{"a", "b", "c", "d", "e", "f"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v.With(tenants[(g+i)%len(tenants)]).Inc()
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, ls := range v.snapshot().Series {
		total += ls.Value
	}
	if total != 8*200 {
		t.Fatalf("lost updates: total %d, want 1600", total)
	}
}

func TestExemplarLastWriteWins(t *testing.T) {
	h := newHistogram([]float64{10, 100})
	h.ObserveTrace(5, "trace-one")
	h.ObserveTrace(7, "trace-two")
	h.Observe(8) // untraced: must not clobber the exemplar
	h.ObserveTrace(50, "trace-mid")
	st := h.Stats()
	if st.Exemplars == nil {
		t.Fatal("no exemplars recorded")
	}
	if ex := st.Exemplars[0]; ex == nil || ex.Trace != "trace-two" || ex.Value != 7 {
		t.Fatalf("bucket 0 exemplar = %+v, want trace-two/7", st.Exemplars[0])
	}
	if ex := st.Exemplars[1]; ex == nil || ex.Trace != "trace-mid" {
		t.Fatalf("bucket 1 exemplar = %+v", st.Exemplars[1])
	}
	if st.Exemplars[2] != nil {
		t.Fatalf("+Inf bucket has phantom exemplar %+v", st.Exemplars[2])
	}
}

// TestWritePromLabeled locks the labeled exposition format: one TYPE
// line per family, one series per label combination in sorted order,
// exemplar annotations on bucket lines, and the whole thing clean under
// the conformance checker with a cardinality bound.
func TestWritePromLabeled(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("serve.tenant.requests", []string{"tenant", "outcome"})
	cv.With("beta", "accepted").Add(2)
	cv.With(`al"pha`, "accepted").Inc() // hostile value: escaped, not rejected
	hv := r.HistogramVec("serve.tenant.wall_ms", []string{"tenant"}, []float64{10, 100})
	hv.With("alpha").ObserveTrace(5, "4bf92f3577b34da6a3ce929d0e0e4736")
	hv.With("alpha").Observe(5000)

	var b strings.Builder
	if err := r.Snapshot().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE dwm_serve_tenant_requests counter\n",
		`dwm_serve_tenant_requests{tenant="al\"pha",outcome="accepted"} 1`,
		`dwm_serve_tenant_requests{tenant="beta",outcome="accepted"} 2`,
		"# TYPE dwm_serve_tenant_wall_ms histogram\n",
		`dwm_serve_tenant_wall_ms_bucket{tenant="alpha",le="10"} 1 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 5`,
		`dwm_serve_tenant_wall_ms_bucket{tenant="alpha",le="+Inf"} 2`,
		`dwm_serve_tenant_wall_ms_sum{tenant="alpha"} 5005`,
		`dwm_serve_tenant_wall_ms_count{tenant="alpha"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// A single TYPE line per family, and the checker accepts the output
	// even with a tight series bound.
	if n := strings.Count(out, "# TYPE dwm_serve_tenant_requests counter"); n != 1 {
		t.Errorf("family has %d TYPE lines, want 1", n)
	}
	if err := LintExpositionOpts(strings.NewReader(out), LintOptions{MaxSeriesPerMetric: 8}); err != nil {
		t.Fatalf("labeled exposition fails conformance: %v\n%s", err, out)
	}
}

func TestLintExpositionOptsCardinality(t *testing.T) {
	var b strings.Builder
	b.WriteString("# TYPE dwm_x counter\n")
	b.WriteString(`dwm_x{t="a"} 1` + "\n")
	b.WriteString(`dwm_x{t="b"} 1` + "\n")
	b.WriteString(`dwm_x{t="c"} 1` + "\n")
	if err := LintExpositionOpts(strings.NewReader(b.String()), LintOptions{MaxSeriesPerMetric: 2}); err == nil {
		t.Fatal("3 series under a cap of 2 passed")
	}
	if err := LintExpositionOpts(strings.NewReader(b.String()), LintOptions{MaxSeriesPerMetric: 3}); err != nil {
		t.Fatalf("3 series under a cap of 3 failed: %v", err)
	}
	// le is not cardinality: a labeled histogram's buckets count once.
	hist := "# TYPE dwm_h histogram\n" +
		`dwm_h_bucket{t="a",le="1"} 0` + "\n" +
		`dwm_h_bucket{t="a",le="+Inf"} 1` + "\n" +
		`dwm_h_sum{t="a"} 5` + "\n" +
		`dwm_h_count{t="a"} 1` + "\n"
	if err := LintExpositionOpts(strings.NewReader(hist), LintOptions{MaxSeriesPerMetric: 1}); err != nil {
		t.Fatalf("le counted toward cardinality: %v", err)
	}
}

func TestLintExpositionExemplars(t *testing.T) {
	good := "# TYPE dwm_h histogram\n" +
		`dwm_h_bucket{le="1"} 1 # {trace_id="abc123"} 1` + "\n" +
		`dwm_h_bucket{le="+Inf"} 1` + "\n" +
		"dwm_h_sum 1\n" +
		"dwm_h_count 1\n"
	if err := LintExpositionOpts(strings.NewReader(good), LintOptions{}); err != nil {
		t.Fatalf("valid exemplar rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"no braces": `dwm_h_bucket{le="1"} 1 # trace_id=abc 1` + "\n",
		"no value":  `dwm_h_bucket{le="1"} 1 # {trace_id="abc"}` + "\n",
		"bad label": `dwm_h_bucket{le="1"} 1 # {9bad="abc"} 1` + "\n",
		"unquoted":  `dwm_h_bucket{le="1"} 1 # {trace_id=abc} 1` + "\n",
	} {
		payload := "# TYPE dwm_h histogram\n" + bad +
			`dwm_h_bucket{le="+Inf"} 1` + "\n" + "dwm_h_sum 1\ndwm_h_count 1\n"
		if err := LintExpositionOpts(strings.NewReader(payload), LintOptions{}); err == nil {
			t.Errorf("%s: malformed exemplar passed", name)
		}
	}
}

// Labeled histograms restart their cumulative bucket sequence per label
// set; the checker must track each series independently.
func TestLintExpositionLabeledHistogramSeries(t *testing.T) {
	payload := "# TYPE dwm_h histogram\n" +
		`dwm_h_bucket{t="a",le="1"} 5` + "\n" +
		`dwm_h_bucket{t="a",le="+Inf"} 5` + "\n" +
		`dwm_h_sum{t="a"} 5` + "\n" +
		`dwm_h_count{t="a"} 5` + "\n" +
		// Second series restarts at a lower count than a's — legal.
		`dwm_h_bucket{t="b",le="1"} 1` + "\n" +
		`dwm_h_bucket{t="b",le="+Inf"} 1` + "\n" +
		`dwm_h_sum{t="b"} 1` + "\n" +
		`dwm_h_count{t="b"} 1` + "\n"
	if err := LintExpositionOpts(strings.NewReader(payload), LintOptions{}); err != nil {
		t.Fatalf("per-series histogram state broken: %v", err)
	}
	// A series missing its +Inf bucket is still caught.
	broken := "# TYPE dwm_h histogram\n" +
		`dwm_h_bucket{t="a",le="1"} 5` + "\n" +
		`dwm_h_sum{t="a"} 5` + "\n" +
		`dwm_h_count{t="a"} 5` + "\n"
	if err := LintExpositionOpts(strings.NewReader(broken), LintOptions{}); err == nil {
		t.Fatal("histogram series without +Inf passed")
	}
}
