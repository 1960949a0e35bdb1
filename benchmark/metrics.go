package main

import (
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// metric is one reported number. Absent marks a metric the workload does
// not exercise (a layer it never reaches, or an obs series that does not
// exist); it is reported as 0 in JSON and as "absent" in the table.
type metric struct {
	Name   string
	Unit   string
	Value  float64
	Absent bool
}

// metricDef names a metric and its unit. The two catalogs below are what
// BENCHMARK.json declares, with the direction that is better.
type metricDef struct {
	Name, Unit string
}

// endToEnd is reported by every workload's untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms_best", "ms"},
	{"shift_ratio", "ratio"},
	{"heap_live_mb", "MiB"},
}

// perLayer is reported by every workload's traced run.
var perLayer = []metricDef{
	{"core.anneal.ns_per_proposal", "ns"},
	{"core.anneal.share", "ratio"},
	{"core.anneal.accept_ratio", "ratio"},
	{"core.anneal.proposals_per_req", "count"},
	{"core.program_order_ratio", "ratio"},
	{"core.propose.ms_mean", "ms"},
	{"core.propose.share", "ratio"},
	{"trace.decode.ms_mean", "ms"},
	{"graph.build.ms_mean", "ms"},
	{"graph.freeze.hit_ratio", "ratio"},
	{"graph.canon.builds_per_req", "count"},
	{"sim.run.ns_per_access", "ns"},
	{"cost.linear.ms_mean", "ms"},
	{"wal.appends_per_req", "count"},
	{"wal.syncs_per_req", "count"},
	{"wal.bytes_per_req", "B"},
	{"wal.write_ms_mean", "ms"},
	{"wal.sync_ms_mean", "ms"},
	{"wal.sync_ms_p99", "ms"},
	{"serve.handler.place.ms_p50", "ms"},
	{"serve.handler.place.ms_p95", "ms"},
	{"serve.handler.job.ms_p50", "ms"},
	{"serve.handler.append.ms_p50", "ms"},
	{"serve.handler.append.ms_p95", "ms"},
	{"serve.job.queue_wait_ms_mean", "ms"},
	{"serve.job.run_ms_mean", "ms"},
	{"serve.cache.hit_ratio", "ratio"},
	{"serve.cache.warmstart_ratio", "ratio"},
	{"serve.unattributed_ms_mean", "ms"},
	{"client.submit.ms_p50", "ms"},
	{"client.wait.ms_p50", "ms"},
	{"client.polls_per_job", "count"},
	{"client.roundtrips_per_req", "count"},
	{"client.retries", "count"},
	{"placecache.hits", "count"},
	{"placecache.misses", "count"},
	{"placecache.evictions", "count"},
	{"go.alloc_mb_per_op", "MiB"},
	{"go.gc_pause_ms_total", "ms"},
	{"go.heap_peak_mb", "MiB"},
	{"run.latency_ms_p50", "ms"},
	{"run.latency_ms_p90", "ms"},
	{"run.latency_ms_p99", "ms"},
	{"run.ops_per_s", "1/s"},
	{"harness.sched_lag_ms_p99", "ms"},
	{"harness.inflight_max", "count"},
	{"harness.trace_overhead_pct", "%"},
	{"harness.slo_miss_ratio", "ratio"},
	{"harness.error_ratio", "ratio"},
}

// metricSet collects values by name and renders them in catalog order.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64) { m[name] = metric{Name: name, Value: v} }

// setIf records v, or marks the metric absent when ok is false.
func (m metricSet) setIf(name string, v float64, ok bool) {
	m[name] = metric{Name: name, Value: v, Absent: !ok}
}

// list renders the catalog; names the run never set are absent.
func (m metricSet) list(defs []metricDef) []metric {
	out := make([]metric, len(defs))
	for i, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			v = metric{Absent: true}
		}
		v.Name, v.Unit = d.Name, d.Unit
		if v.Absent || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value, v.Absent = 0, true
		}
		out[i] = v
	}
	return out
}

// quantile is the q-quantile of xs with linear interpolation between
// order statistics (NaN when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, with ok false when b is zero.
func ratio(a, b float64) (float64, bool) {
	if b == 0 {
		return 0, false
	}
	return a / b, true
}

// quality accumulates placement costs per distinct input, indexed by
// input. shift_ratio is the sum over inputs of each input's mean placed
// cost, divided by the sum of the expected cost of a uniformly random
// layout, W·(n+1)/3 for a transition graph of total weight W on n items
// (two distinct items of a random permutation sit (n+1)/3 apart on
// average). Averaging per input keeps the ratio independent of how often
// each input ran, and the random-layout reference depends only on the
// graph's size and weight, so the ratio follows placement quality rather
// than seed-to-seed changes in the inputs. The program-order (first-touch)
// ratio, the paper's baseline, swings by about a tenth between seeds on
// the Markov walks and is reported per layer instead.
type quality []struct {
	costSum float64
	runs    int
	random  float64
	program float64
}

func (q quality) add(i int, cost, random, program float64) {
	q[i].costSum += cost
	q[i].runs++
	q[i].random, q[i].program = random, program
}

// ratios returns the shift ratio and the program-order ratio.
func (q quality) ratios() (shift, program float64, ok bool) {
	var c, r, p float64
	for _, e := range q {
		if e.runs > 0 {
			c += e.costSum / float64(e.runs)
			r += e.random
			p += e.program
		}
	}
	if r == 0 || p == 0 {
		return 0, 0, false
	}
	return c / r, c / p, true
}

// fastest keeps the fastest latency of each distinct input, indexed by
// input; latency_ms_best is their median. The host shares its cores with
// neighbours whose load slows a run by anything from a tenth to threefold,
// changing from second to second, and the median and tail of a run move
// with it. The fastest of an input's repeats is the one the neighbours
// left alone, so it repeats from run to run.
type fastest []float64

func (f fastest) add(i int, ms float64) {
	if f[i] == 0 || ms < f[i] {
		f[i] = ms
	}
}

// median is the median over the inputs that completed at least once (NaN
// when none did).
func (f fastest) median() float64 {
	var xs []float64
	for _, v := range f {
		if v > 0 {
			xs = append(xs, v)
		}
	}
	return quantile(xs, 0.5)
}

// randomLayoutCost is the expected Linear cost of a uniformly random
// placement of g.
func randomLayoutCost(g *graph.Graph) float64 {
	return float64(g.TotalWeight()) * float64(g.N()+1) / 3
}

// obsDelta is the change in the process-wide obs registry over a phase,
// read by series name.
type obsDelta struct{ before, after obs.Snapshot }

func takeObs() obs.Snapshot { return obs.Default().Snapshot() }

// counter returns the change of a counter; ok is false when the series
// does not exist.
func (d obsDelta) counter(name string) (float64, bool) {
	a, ok := d.after.Counters[name]
	if !ok {
		return 0, false
	}
	return float64(a - d.before.Counters[name]), true
}

// histMean returns the mean of the observations a histogram gained.
func (d obsDelta) histMean(name string) (float64, bool) {
	a, ok := d.after.Histograms[name]
	if !ok {
		return 0, false
	}
	b := d.before.Histograms[name]
	return ratio(float64(a.Sum-b.Sum), float64(a.Count-b.Count))
}

// memDelta is the Go runtime's allocation and GC-pause change over a phase.
type memDelta struct{ before, after runtime.MemStats }

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// liveHeapMB collects garbage and returns the live heap in MiB: what the
// process retains at the end of a phase, independent of where the GC
// cycle happened to be. The second cycle frees what sync.Pools kept
// through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	return float64(readMem().HeapAlloc) / (1 << 20)
}

// heapSampler records the peak of HeapInuse, sampled at 10 Hz.
type heapSampler struct {
	stop chan struct{}
	g    group
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.sample()
	h.g.Go(func() {
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	})
	return h
}

func (h *heapSampler) sample() {
	m := readMem()
	for {
		p := h.peak.Load()
		if m.HeapInuse <= p || h.peak.CompareAndSwap(p, m.HeapInuse) {
			return
		}
	}
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.g.Wait()
	h.sample()
	return float64(h.peak.Load()) / (1 << 20)
}

// spanIndex groups a traced phase's spans for the per-layer metrics.
type spanIndex struct {
	byName map[string][]spanRecord
	byID   map[uint64]spanRecord
}

func indexSpans(spans []spanRecord) spanIndex {
	ix := spanIndex{byName: map[string][]spanRecord{}, byID: map[uint64]spanRecord{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		ix.byID[s.ID] = s
	}
	return ix
}

// durations returns the durations in ms of the named spans, optionally
// restricted to one route.
func (ix spanIndex) durations(name, rt string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		if rt == "" || s.Route == rt {
			out = append(out, s.ms())
		}
	}
	return out
}

func (ix spanIndex) total(name string) float64 {
	var sum float64
	for _, s := range ix.byName[name] {
		sum += s.ms()
	}
	return sum
}

// size sums the Size attribute of the named spans.
func (ix spanIndex) size(name string) float64 {
	var sum float64
	for _, s := range ix.byName[name] {
		sum += float64(s.Size)
	}
	return sum
}

// setStat records a statistic of xs, absent when xs is empty.
func (m metricSet) setStat(name string, xs []float64, stat func([]float64) float64) {
	if len(xs) == 0 {
		m.setIf(name, 0, false)
		return
	}
	m.set(name, stat(xs))
}

func p50(xs []float64) float64 { return quantile(xs, 0.50) }
func p90(xs []float64) float64 { return quantile(xs, 0.90) }
func p95(xs []float64) float64 { return quantile(xs, 0.95) }

func p99(xs []float64) float64 { return quantile(xs, 0.99) }

// layerInput is what one traced main phase hands to perLayerMetrics.
type layerInput struct {
	spans     []spanRecord
	obs       obsDelta
	mem       memDelta
	ops       int       // operations in the main phase, traced or not
	lat       []float64 // latencies of its successful operations, ms
	opsPerS   float64   // offline: placements per second; serving: capacity
	lags      []float64
	inflight  int
	overhead  float64 // percent; NaN when no pair completed
	heapPeak  float64 // MiB
	sloMisses int
	failed    int
}

// perLayerMetrics derives the per-layer catalog from one traced phase.
// Layers a workload does not reach come out absent.
func perLayerMetrics(in layerInput) metricSet {
	m := metricSet{}
	ix := indexSpans(in.spans)
	ops := float64(in.ops)
	perOp := func(name, series string) {
		v, ok := in.obs.counter(series)
		if ok {
			v, ok = ratio(v, ops)
		}
		m.setIf(name, v, ok)
	}
	counterRatio := func(name, num, den string, denAddsNum bool) {
		a, ok1 := in.obs.counter(num)
		b, ok2 := in.obs.counter(den)
		if denAddsNum {
			b += a
		}
		v, ok := ratio(a, b)
		m.setIf(name, v, ok1 && ok2 && ok)
	}

	// core, trace, graph, cost, sim: library spans of the offline loop.
	place := ix.total("place")
	share := func(name, child string) {
		v, ok := ratio(ix.total(child), place)
		m.setIf(name, v, ok && len(ix.byName[child]) > 0)
	}
	share("core.anneal.share", "core.anneal")
	share("core.propose.share", "core.propose")
	v, ok := ratio(ix.total("core.anneal")*1e6, ix.size("core.anneal"))
	m.setIf("core.anneal.ns_per_proposal", v, ok)
	v, ok = ratio(ix.total("sim.run")*1e6, ix.size("sim.run"))
	m.setIf("sim.run.ns_per_access", v, ok)
	m.setStat("core.propose.ms_mean", ix.durations("core.propose", ""), mean)
	m.setStat("trace.decode.ms_mean", ix.durations("trace.decode", ""), mean)
	m.setStat("graph.build.ms_mean", ix.durations("graph.build", ""), mean)
	m.setStat("cost.linear.ms_mean", ix.durations("cost.linear", ""), mean)
	counterRatio("core.anneal.accept_ratio", "core.anneal.accepted_moves", "core.anneal.iterations", false)
	perOp("core.anneal.proposals_per_req", "core.anneal.iterations")
	counterRatio("graph.freeze.hit_ratio", "graph.freeze.hits", "graph.freeze.misses", true)
	perOp("graph.canon.builds_per_req", "graph.canon.builds")

	// wal: obs counts plus the filesystem probe's spans.
	perOp("wal.appends_per_req", "serve.wal.appends")
	perOp("wal.syncs_per_req", "serve.wal.syncs")
	v, ok = ratio(ix.size("wal.write"), ops)
	m.setIf("wal.bytes_per_req", v, ok && len(ix.byName["wal.write"]) > 0)
	m.setStat("wal.write_ms_mean", ix.durations("wal.write", ""), mean)
	m.setStat("wal.sync_ms_mean", ix.durations("wal.sync", ""), mean)
	m.setStat("wal.sync_ms_p99", ix.durations("wal.sync", ""), p99)

	// serve: handler spans from the middleware, job timings from obs.
	m.setStat("serve.handler.place.ms_p50", ix.durations("serve.handler", reqPlace), p50)
	m.setStat("serve.handler.place.ms_p95", ix.durations("serve.handler", reqPlace), p95)
	m.setStat("serve.handler.job.ms_p50", ix.durations("serve.handler", "job"), p50)
	m.setStat("serve.handler.append.ms_p50", ix.durations("serve.handler", reqAppend), p50)
	m.setStat("serve.handler.append.ms_p95", ix.durations("serve.handler", reqAppend), p95)
	v, ok = in.obs.histMean("serve.job.queue_wait_ms")
	m.setIf("serve.job.queue_wait_ms_mean", v, ok)
	v, ok = in.obs.histMean("serve.job.wall_ms")
	m.setIf("serve.job.run_ms_mean", v, ok)
	counterRatio("serve.cache.hit_ratio", "serve.cache.hits", "serve.cache.misses", true)
	counterRatio("serve.cache.warmstart_ratio", "serve.cache.warmstarts", "serve.cache.misses", false)
	var unattributed []float64
	for _, h := range ix.byName["serve.handler"] {
		if rt, ok := ix.byID[h.Parent]; ok {
			unattributed = append(unattributed, rt.ms()-h.ms())
		}
	}
	m.setStat("serve.unattributed_ms_mean", unattributed, mean)

	// serve/client: the benchmark's call spans and the transport probe.
	requests := len(ix.byName["client.request"])
	placeReqs := 0
	for _, s := range ix.byName["client.request"] {
		if s.Route == reqPlace || s.Route == reqHit {
			placeReqs++
		}
	}
	trips := ix.byName["client.roundtrip"]
	polls, retries := 0, 0
	for _, s := range trips {
		if s.Route == "job" {
			polls++
		}
		if s.Status == 0 || s.Status == http.StatusTooManyRequests || s.Status >= 500 {
			retries++
		}
	}
	m.setStat("client.submit.ms_p50", ix.durations("client.submit", ""), p50)
	m.setStat("client.wait.ms_p50", ix.durations("client.wait", ""), p50)
	v, ok = ratio(float64(polls), float64(placeReqs))
	m.setIf("client.polls_per_job", v, ok)
	v, ok = ratio(float64(len(trips)), float64(requests))
	m.setIf("client.roundtrips_per_req", v, ok)
	m.setIf("client.retries", float64(retries), requests > 0)

	// placecache: raw deltas.
	for _, name := range []string{"placecache.hits", "placecache.misses", "placecache.evictions"} {
		v, ok := in.obs.counter(name)
		m.setIf(name, v, ok)
	}

	// Go runtime.
	v, ok = ratio(float64(in.mem.after.TotalAlloc-in.mem.before.TotalAlloc)/(1<<20), ops)
	m.setIf("go.alloc_mb_per_op", v, ok)
	m.set("go.gc_pause_ms_total", float64(in.mem.after.PauseTotalNs-in.mem.before.PauseTotalNs)/1e6)
	m.set("go.heap_peak_mb", in.heapPeak)

	// The main phase's whole latency distribution and its throughput. They
	// swing with the neighbours' load (see fastest), so they are reported
	// here, without a bound, rather than as end-to-end metrics.
	m.setStat("run.latency_ms_p50", in.lat, p50)
	m.setStat("run.latency_ms_p90", in.lat, p90)
	m.setStat("run.latency_ms_p99", in.lat, p99)
	m.set("run.ops_per_s", in.opsPerS)

	// harness: validity of the measurement itself.
	m.setStat("harness.sched_lag_ms_p99", in.lags, p99)
	m.set("harness.inflight_max", float64(in.inflight))
	m.setIf("harness.trace_overhead_pct", in.overhead, !math.IsNaN(in.overhead))
	v, ok = ratio(float64(in.sloMisses), ops)
	m.setIf("harness.slo_miss_ratio", v, ok)
	v, ok = ratio(float64(in.failed), ops)
	m.setIf("harness.error_ratio", v, ok)
	return m
}
