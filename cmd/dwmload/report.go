package main

// SLO report construction and rendering — pure: everything here is
// arithmetic over samples the driver collected; the wall clock never
// enters (elapsed time arrives as data). The JSON form is the
// BENCH_dwmload.json artifact the load-smoke CI target checks in; the
// table form is what a human reads at the terminal.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Sample is one completed request as the driver measured it.
type Sample struct {
	Index  int    `json:"index"`
	Kind   string `json:"kind"`
	Tenant string `json:"tenant"`
	// TraceID is the request's cross-process trace (empty for streams) —
	// the handle that joins this client-side sample to the server's
	// spans in /debug/events.
	TraceID string `json:"trace_id,omitempty"`
	// ClientMS is the request's wall time as the client saw it: submit
	// through terminal status, retries and polling included.
	ClientMS float64 `json:"client_ms"`
	// ServerMS is the server-reported execution time (JobStatus.
	// ElapsedMS; 0 for cache hits and streams) — the attribution split:
	// ClientMS - ServerMS is queueing, polling, and transport.
	ServerMS int64 `json:"server_ms"`
	// CacheHit / Deduped mark fast-path outcomes.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Err is the terminal failure, empty on success.
	Err string `json:"err,omitempty"`
}

// RetryCount aggregates the client retry loop's observations.
type RetryCount struct {
	// Backpressure429 counts retries triggered by 429 responses.
	Backpressure429 int64 `json:"backpressure_429"`
	// Transient5xx counts retries triggered by 5xx responses.
	Transient5xx int64 `json:"transient_5xx"`
	// Transport counts retries triggered by transport errors.
	Transport int64 `json:"transport"`
}

func (r RetryCount) total() int64 { return r.Backpressure429 + r.Transient5xx + r.Transport }

// KindStats summarizes one request kind's latency distribution.
type KindStats struct {
	Count int     `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
	// MeanClientMS / MeanServerMS attribute where the time went: the gap
	// between them is queueing + polling + transport, not placement work.
	MeanClientMS float64 `json:"mean_client_ms"`
	MeanServerMS float64 `json:"mean_server_ms"`
}

// SlowSample names one of the run's slowest requests, with the trace ID
// to chase through /debug/events.
type SlowSample struct {
	Kind     string  `json:"kind"`
	Tenant   string  `json:"tenant"`
	TraceID  string  `json:"trace_id,omitempty"`
	ClientMS float64 `json:"client_ms"`
	ServerMS int64   `json:"server_ms"`
}

// SLOResult is the evaluated budget.
type SLOResult struct {
	Pass       bool     `json:"pass"`
	Violations []string `json:"violations,omitempty"`
}

// Report is the run's SLO report — the schema of BENCH_dwmload.json.
type Report struct {
	Scenario    string  `json:"scenario"`
	Seed        int64   `json:"seed"`
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	ElapsedMS   int64   `json:"elapsed_ms"`
	Throughput  float64 `json:"throughput_rps"`
	Errors      int     `json:"errors"`
	CacheHits   int     `json:"cache_hits"`
	Deduped     int     `json:"deduped"`

	Retries RetryCount `json:"retries"`

	Overall KindStats            `json:"overall"`
	Kinds   map[string]KindStats `json:"kinds"`

	// Slowest lists the worst requests by client latency (at most 5).
	Slowest []SlowSample `json:"slowest,omitempty"`

	// MetricsDiff is the before/after delta of the server's dwm_serve_*
	// counters over the run — the server's own account of what the load
	// did to it, next to the client's.
	MetricsDiff map[string]int64 `json:"metrics_diff,omitempty"`

	SLO *SLOResult `json:"slo,omitempty"`
}

// quantile is stats.Quantile (which sorts a copy, leaving xs as it
// was) with the empty-input error mapped to 0.
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

// kindStats summarizes one group of samples.
func kindStats(samples []Sample) KindStats {
	ks := KindStats{Count: len(samples)}
	if len(samples) == 0 {
		return ks
	}
	lat := make([]float64, 0, len(samples))
	var sumC float64
	var sumS int64
	for _, s := range samples {
		lat = append(lat, s.ClientMS)
		sumC += s.ClientMS
		sumS += s.ServerMS
		if s.ClientMS > ks.MaxMS {
			ks.MaxMS = s.ClientMS
		}
	}
	ks.P50MS = quantile(lat, 0.50)
	ks.P95MS = quantile(lat, 0.95)
	ks.P99MS = quantile(lat, 0.99)
	ks.MeanClientMS = sumC / float64(len(samples))
	ks.MeanServerMS = float64(sumS) / float64(len(samples))
	return ks
}

// BuildReport folds the run's observations into the SLO report.
// metricsBefore/metricsAfter are raw /metrics expositions scraped
// around the run (either may be empty, e.g. when a scrape failed).
func BuildReport(sc *Scenario, samples []Sample, retries RetryCount, elapsedMS int64, metricsBefore, metricsAfter string) *Report {
	r := &Report{
		Scenario:    sc.Name,
		Seed:        sc.Seed,
		Requests:    len(samples),
		Concurrency: sc.concurrency(),
		ElapsedMS:   elapsedMS,
		Retries:     retries,
		Kinds:       map[string]KindStats{},
	}
	if elapsedMS > 0 {
		r.Throughput = float64(len(samples)) / (float64(elapsedMS) / 1000)
	}
	byKind := map[string][]Sample{}
	var ok []Sample
	for _, s := range samples {
		if s.Err != "" {
			r.Errors++
			continue
		}
		if s.CacheHit {
			r.CacheHits++
		}
		ok = append(ok, s)
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}
	r.Overall = kindStats(ok)
	for kind, group := range byKind {
		r.Kinds[kind] = kindStats(group)
	}
	// Slowest requests, with trace IDs for the /debug/events chase.
	sorted := append([]Sample(nil), ok...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].ClientMS != sorted[j].ClientMS {
			return sorted[i].ClientMS > sorted[j].ClientMS
		}
		return sorted[i].Index < sorted[j].Index
	})
	for i := 0; i < len(sorted) && i < 5; i++ {
		s := sorted[i]
		r.Slowest = append(r.Slowest, SlowSample{
			Kind: s.Kind, Tenant: s.Tenant, TraceID: s.TraceID,
			ClientMS: s.ClientMS, ServerMS: s.ServerMS,
		})
	}
	r.MetricsDiff = metricsDiff(metricsBefore, metricsAfter)
	if sc.SLO != nil {
		r.SLO = evaluateSLO(sc.SLO, r)
	}
	return r
}

// evaluateSLO checks the report against the budget.
func evaluateSLO(b *SLOBudget, r *Report) *SLOResult {
	res := &SLOResult{Pass: true}
	fail := func(format string, args ...any) {
		res.Pass = false
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	total := float64(r.Requests)
	if total == 0 {
		fail("no requests completed")
		return res
	}
	if rate := float64(r.Errors) / total; b.MaxErrorRate > 0 && rate > b.MaxErrorRate {
		fail("error rate %.3f exceeds budget %.3f", rate, b.MaxErrorRate)
	}
	if b.MaxRetryRate > 0 {
		if rate := float64(r.Retries.total()) / total; rate > b.MaxRetryRate {
			fail("retry rate %.3f exceeds budget %.3f", rate, b.MaxRetryRate)
		}
	}
	if b.MaxP95MS > 0 && r.Overall.P95MS > b.MaxP95MS {
		fail("p95 %.1fms exceeds budget %.1fms", r.Overall.P95MS, b.MaxP95MS)
	}
	if b.MinThroughputRPS > 0 && r.Throughput < b.MinThroughputRPS {
		fail("throughput %.2f rps below budget %.2f", r.Throughput, b.MinThroughputRPS)
	}
	return res
}

// metricsDiff extracts the dwm_serve_* counter deltas between two raw
// text expositions. Bucketed histogram series are skipped (the _sum and
// _count roll-ups carry the signal); gauges are included as-is since a
// depth that did not return to its start is itself a finding.
func metricsDiff(before, after string) map[string]int64 {
	b := parseExposition(before)
	a := parseExposition(after)
	if len(a) == 0 {
		return nil
	}
	diff := map[string]int64{}
	for name, av := range a {
		if !strings.HasPrefix(name, "dwm_serve_") || strings.Contains(name, "_bucket") {
			continue
		}
		if d := av - b[name]; d != 0 {
			diff[name] = d
		}
	}
	return diff
}

// parseExposition reads integer samples out of a Prometheus text
// exposition, keyed by "name" or "name{labels}". Non-integer values and
// malformed lines are skipped — this is a diff aid, not a validator
// (obs.LintExpositionOpts is).
func parseExposition(text string) map[string]int64 {
	out := map[string]int64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Strip an exemplar annotation before splitting the value off.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}

// RenderTable formats the report for the terminal.
func RenderTable(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s (seed %d): %d requests, %d workers, %.2fs wall, %.2f rps\n",
		r.Scenario, r.Seed, r.Requests, r.Concurrency, float64(r.ElapsedMS)/1000, r.Throughput)
	fmt.Fprintf(&b, "errors %d  cache-hits %d  retries 429=%d 5xx=%d transport=%d\n",
		r.Errors, r.CacheHits, r.Retries.Backpressure429, r.Retries.Transient5xx, r.Retries.Transport)
	fmt.Fprintf(&b, "%-10s %6s %9s %9s %9s %9s %11s %11s\n",
		"kind", "count", "p50ms", "p95ms", "p99ms", "maxms", "mean-client", "mean-server")
	row := func(name string, ks KindStats) {
		fmt.Fprintf(&b, "%-10s %6d %9.1f %9.1f %9.1f %9.1f %11.1f %11.1f\n",
			name, ks.Count, ks.P50MS, ks.P95MS, ks.P99MS, ks.MaxMS, ks.MeanClientMS, ks.MeanServerMS)
	}
	row("overall", r.Overall)
	kinds := make([]string, 0, len(r.Kinds))
	for k := range r.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		row(k, r.Kinds[k])
	}
	if len(r.Slowest) > 0 {
		fmt.Fprintf(&b, "slowest requests:\n")
		for _, s := range r.Slowest {
			fmt.Fprintf(&b, "  %-10s tenant=%-8s client=%8.1fms server=%6dms trace=%s\n",
				s.Kind, s.Tenant, s.ClientMS, s.ServerMS, s.TraceID)
		}
	}
	if len(r.MetricsDiff) > 0 {
		fmt.Fprintf(&b, "server metrics delta:\n")
		names := make([]string, 0, len(r.MetricsDiff))
		for name := range r.MetricsDiff {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "  %-56s %+d\n", name, r.MetricsDiff[name])
		}
	}
	if r.SLO != nil {
		if r.SLO.Pass {
			fmt.Fprintf(&b, "SLO: PASS\n")
		} else {
			fmt.Fprintf(&b, "SLO: FAIL\n")
			for _, v := range r.SLO.Violations {
				fmt.Fprintf(&b, "  violation: %s\n", v)
			}
		}
	}
	return b.String()
}
