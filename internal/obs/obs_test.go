package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("same name returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestSnapshotAndReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Gauge("b").Set(9)
	r.Histogram("c", LatencyBoundsMS).Observe(1)
	s := r.Snapshot()
	if s.Counters["a"] != 3 || s.Gauges["b"] != 9 || s.Histograms["c"].Count != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	// Snapshot is a copy: later writes must not show up in it.
	r.Counter("a").Add(1)
	if s.Counters["a"] != 3 {
		t.Fatal("snapshot aliases live counter")
	}
	r.Reset()
	if r.Counter("a").Value() != 0 || r.Gauge("b").Value() != 0 || r.Histogram("c", nil).Stats().Count != 0 {
		t.Fatal("Reset did not zero instruments")
	}
	// Handles obtained before Reset stay wired to the registry.
	r.Counter("a").Inc()
	if r.Snapshot().Counters["a"] != 1 {
		t.Fatal("pre-Reset handle detached from registry")
	}
}

func TestSnapshotFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.second").Add(2)
	r.Counter("a.first").Add(1)
	r.Gauge("g").Set(5)
	r.Histogram("h", LatencyBoundsMS).Observe(1)
	out := r.Snapshot().Format()
	ia, iz := strings.Index(out, "a.first"), strings.Index(out, "z.second")
	if ia < 0 || iz < 0 || ia > iz {
		t.Fatalf("counters missing or unsorted:\n%s", out)
	}
	for _, want := range []string{"gauge", "hist", "count=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("hits").Inc()
				r.Histogram("lat", LatencyBoundsMS).Observe(1)
				r.Gauge("depth").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*per {
		t.Fatalf("hits = %d, want %d", got, workers*per)
	}
	if got := r.Histogram("lat", nil).Stats().Count; got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("depth").Value(); got != workers*per {
		t.Fatalf("gauge = %d, want %d", got, workers*per)
	}
}

// Snapshot emission is deterministic: with the registry quiescent, 100
// concurrent snapshot+render rounds (exercised under -race in CI) must
// produce byte-identical text, JSON, and Prometheus output. This is the
// ordering contract the dwmlint maporder fixture pins at the analyzer
// level: every map in Snapshot is emitted through sorted keys.
func TestSnapshotDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"z.last", "m.mid", "a.first", "core.anneal.iterations"} {
		r.Counter(n).Add(int64(len(n)))
		r.Gauge(n + ".g").Set(int64(-len(n)))
		r.Histogram(n+".ms", LatencyBoundsMS).Observe(int64(len(n)))
	}
	h := r.Histogram("sim.shift_distance", []float64{1, 4, 16})
	for v := int64(0); v < 20; v++ {
		h.Observe(v)
	}
	r.Histogram("serve.job.wall_ms", []float64{10, 100})

	const rounds = 100
	outs := make([]string, rounds)
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := r.Snapshot()
			var b strings.Builder
			b.WriteString(s.Format())
			if err := s.WriteProm(&b); err != nil {
				t.Error(err)
				return
			}
			j, err := json.Marshal(s)
			if err != nil {
				t.Error(err)
				return
			}
			b.Write(j)
			outs[i] = b.String()
		}(i)
	}
	wg.Wait()
	for i := 1; i < rounds; i++ {
		if outs[i] != outs[0] {
			t.Fatalf("snapshot render %d differs from render 0:\n%s\nvs\n%s", i, outs[i], outs[0])
		}
	}
	if outs[0] == "" {
		t.Fatal("renders were empty")
	}
}

func TestDefaultRegistryHelpers(t *testing.T) {
	Default().Reset()
	GetCounter("x").Inc()
	GetGauge("y").Set(2)
	GetHistogram("z", LatencyBoundsMS).Observe(1)
	s := Default().Snapshot()
	if s.Counters["x"] != 1 || s.Gauges["y"] != 2 || s.Histograms["z"].Count != 1 {
		t.Fatalf("default registry snapshot = %+v", s)
	}
	Default().Reset()
	if Default().Snapshot().Counters["x"] != 0 {
		t.Fatal("Reset did not zero the default registry")
	}
}
