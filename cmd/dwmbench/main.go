// Command dwmbench runs the reproduction's experiment suite (E1–E9) and
// prints each table/figure in paper form.
//
// Usage:
//
//	dwmbench [-seed N] [-csv] [-md] [-only E2,E5] [-workers N] [-timeout D]
//	         [-json FILE] [-metrics] [-trace FILE] [-cache DIR]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// Experiments execute on a worker pool of -workers goroutines (default
// GOMAXPROCS; 1 forces sequential). Output is byte-identical for every
// worker count — only E8's wall-clock column is timing-sensitive.
//
// Robustness: a panic or error inside one experiment fails only that
// experiment — the others still print and report. -timeout bounds each
// experiment's wall time. SIGINT cancels the run gracefully: experiments
// already finished still print, the -json report is still written for
// them, and the process exits nonzero.
//
// -cache DIR memoizes the anneal stages of the suite in a persistent
// placement cache, a segment log under DIR/placecache/ (see
// internal/placecache and internal/wal):
// re-running a sweep replays cached anneal results byte-exactly instead
// of re-searching. Each -json report row records whether its experiment
// ran against the cache ("hit"/"miss"/"off") so repeated runs stay
// distinguishable in the BENCH history.
//
// -json writes a machine-readable BENCH report with per-experiment wall
// times, ns deltas against the previous run, and a metrics snapshot
// (see internal/obs). When the file already exists, entries for
// experiments not run this invocation (e.g. filtered out by -only) are
// preserved from the prior report instead of being clobbered, so the
// wall-time trajectory survives partial runs.
//
// -metrics prints the observability snapshot (simulator, annealer,
// graph delta and canonicalization, and runner instruments) to stderr after the run. -cpuprofile
// and -memprofile write pprof profiles for the whole invocation.
//
// -trace enables the span tracer for the run and writes the collected
// spans at exit: Chrome trace_event JSON by default (load it in
// Perfetto or chrome://tracing), or one span per line when the file
// name ends in .jsonl. Tracing is observational only — tables are
// byte-identical with and without it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/placecache"
)

func main() {
	var opts options
	flag.Int64Var(&opts.seed, "seed", 1, "seed for workloads and randomized policies")
	flag.BoolVar(&opts.csv, "csv", false, "emit CSV instead of aligned tables")
	flag.BoolVar(&opts.md, "md", false, "emit GitHub-flavored markdown instead of aligned tables")
	flag.StringVar(&opts.only, "only", "", "comma-separated experiment IDs to run (default: all)")
	flag.IntVar(&opts.workers, "workers", 0, "worker-pool size for experiments (0 = GOMAXPROCS, 1 = sequential)")
	flag.DurationVar(&opts.timeout, "timeout", 0, "per-experiment wall-time limit (0 = none)")
	flag.StringVar(&opts.jsonPath, "json", "", "write a machine-readable benchmark report to this file")
	flag.BoolVar(&opts.metrics, "metrics", false, "print the observability snapshot to stderr after the run")
	flag.StringVar(&opts.tracePath, "trace", "", "collect spans and write a Chrome trace_event file (.jsonl = one span per line)")
	flag.StringVar(&opts.cacheDir, "cache", "", "memoize anneal results in a persistent placement cache under this directory")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	// SIGINT cancels the run: in-flight experiments are abandoned,
	// completed ones still print and land in the -json report.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwmbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dwmbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	err := run(ctx, opts)

	if *memprofile != "" {
		if f, ferr := os.Create(*memprofile); ferr == nil {
			runtime.GC()
			if werr := pprof.WriteHeapProfile(f); werr != nil {
				fmt.Fprintln(os.Stderr, "dwmbench:", werr)
			}
			f.Close()
		} else {
			fmt.Fprintln(os.Stderr, "dwmbench:", ferr)
		}
	}

	if err != nil {
		fmt.Fprintln(os.Stderr, "dwmbench:", err)
		if *cpuprofile != "" {
			pprof.StopCPUProfile() // flush before the deferred exit is skipped
		}
		os.Exit(1)
	}
}

// options carries the CLI flags into run.
type options struct {
	seed      int64
	csv, md   bool
	only      string
	workers   int
	timeout   time.Duration
	jsonPath  string
	metrics   bool
	tracePath string
	cacheDir  string
}

// benchReport is the schema of the -json report (BENCH_dwmbench.json).
type benchReport struct {
	Seed    int64 `json:"seed"`
	Workers int   `json:"workers"`
	// TotalNS sums WallNS over every entry in the report, including
	// entries merged from a prior run when -only filtered this one.
	TotalNS     int64       `json:"total_ns"`
	Experiments []expReport `json:"experiments"`
	// Metrics is the process-wide observability snapshot at report time
	// (simulator, annealer, graph deltas, runner; see internal/obs).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// DeltaBench records the graph.ApplyDeltas-vs-rebuild microbenchmark
	// (BenchmarkApplyDeltas* in internal/graph): the patch and splice
	// paths against building the same graph from scratch with
	// graph.FromEdges. dwmbench does not
	// measure it — the numbers come from `go test -bench ApplyDeltas
	// ./internal/graph` — but the report carries them across merges so a
	// partial -only run never drops the record.
	DeltaBench *deltaBenchReport `json:"delta_bench,omitempty"`
	// LintBench records the dwmlint wall-clock over the whole module
	// (written by `dwmlint -bench`, see the Makefile lint-bench target).
	// Like DeltaBench it is carried across merges, not measured here.
	LintBench *lintBenchReport `json:"lint_bench,omitempty"`
}

// deltaBenchReport pins the incremental-graph acceptance numbers: ns/op
// for the weight-only patch and structural splice paths vs a cold CSR
// rebuild of the same batch, plus the derived speedups.
type deltaBenchReport struct {
	Bench         string  `json:"bench"`
	PatchNS       int64   `json:"patch_ns_op"`
	SpliceNS      int64   `json:"splice_ns_op"`
	RebuildNS     int64   `json:"rebuild_ns_op"`
	PatchSpeedup  float64 `json:"patch_speedup"`
	SpliceSpeedup float64 `json:"splice_speedup"`
}

// lintBenchReport mirrors the lint_bench entry cmd/dwmlint -bench
// writes: how long the full-module analysis run took and what it saw.
type lintBenchReport struct {
	Packages   int   `json:"packages"`
	Analyzers  int   `json:"analyzers"`
	Findings   int   `json:"findings"`
	Suppressed int   `json:"suppressed"`
	WallNS     int64 `json:"wall_ns"`
}

type expReport struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	WallNS int64  `json:"wall_ns"`
	// DeltaPct is the percent change in wall time vs the same experiment
	// in the report previously stored at the -json path (negative =
	// faster); omitted when there is no prior sample.
	DeltaPct *float64 `json:"delta_pct,omitempty"`
	// Cache records how this row ran against the placement cache: "hit"
	// (every anneal lookup was served from the cache), "miss" (at least
	// one lookup annealed cold), or "off" (no -cache, or the experiment
	// has no anneal stage). Rows merged from reports written before the
	// field existed omit it. Schema bump documented in EXPERIMENTS.md.
	Cache string `json:"cache,omitempty"`
}

// cacheOutcome folds a RunResult's cache counters into the report
// value: any cold lookup makes the row a "miss" (its wall time includes
// real search work), an all-served row is a "hit", everything else is
// "off".
func cacheOutcome(r bench.RunResult) string {
	switch {
	case !r.CacheEnabled:
		return "off"
	case r.CacheMisses > 0:
		return "miss"
	case r.CacheHits > 0:
		return "hit"
	default:
		return "off"
	}
}

func run(ctx context.Context, opts options) error {
	want := map[string]bool{}
	if opts.only != "" {
		for _, id := range strings.Split(opts.only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	var selected []bench.Experiment
	for _, e := range bench.All() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		selected = append(selected, e)
	}
	if len(selected) == 0 {
		return fmt.Errorf("no experiments matched %q", opts.only)
	}

	// Prior report (if any), loaded before the run so a failed run never
	// clobbers it. It feeds the wall-time deltas and the merge of
	// entries for experiments not run this invocation.
	prior := map[string]expReport{}
	var priorOrder []string
	var priorDelta *deltaBenchReport
	var priorLint *lintBenchReport
	if opts.jsonPath != "" {
		if raw, err := os.ReadFile(opts.jsonPath); err == nil {
			var old benchReport
			if json.Unmarshal(raw, &old) == nil {
				for _, e := range old.Experiments {
					prior[e.ID] = e
					priorOrder = append(priorOrder, e.ID)
				}
				priorDelta = old.DeltaBench
				priorLint = old.LintBench
			}
		}
	}

	if opts.tracePath != "" {
		// 128k spans ≈ 16 MiB of ring: enough for a full suite run (one
		// span per anneal chain / sim run / experiment) without drops.
		obs.EnableTracing(1 << 17)
		defer obs.DisableTracing()
	}

	cfg := bench.Config{Seed: opts.seed, Workers: opts.workers, Timeout: opts.timeout}
	if opts.cacheDir != "" {
		pc, err := placecache.New(placecache.Options{Dir: opts.cacheDir})
		if err != nil {
			return err
		}
		defer pc.Close()
		fmt.Fprintf(os.Stderr, "dwmbench: placement cache in %s (%d entries loaded)\n",
			opts.cacheDir, pc.Len())
		cfg.Cache = pc.ForAnneal("linear")
	}
	results, runErr := bench.RunContext(ctx, cfg, selected...)

	// Print every completed table, even when a sibling failed or the
	// run was interrupted.
	var out bytes.Buffer
	_, renderSpan := obs.StartSpan(ctx, "bench.render")
	for _, r := range results {
		if r.Table == nil {
			continue
		}
		switch {
		case opts.csv:
			if err := r.Table.CSV(&out); err != nil {
				return err
			}
			fmt.Fprintln(&out)
		case opts.md:
			if err := r.Table.Markdown(&out); err != nil {
				return err
			}
		default:
			if err := r.Table.Format(&out); err != nil {
				return err
			}
		}
	}
	renderSpan.SetAttr("experiments", len(results)).End()
	if _, err := out.WriteTo(os.Stdout); err != nil {
		return err
	}

	if opts.metrics {
		fmt.Fprint(os.Stderr, obs.Take().Format())
	}

	if opts.tracePath != "" {
		if err := writeTrace(opts.tracePath); err != nil {
			if runErr != nil {
				return errors.Join(runErr, err)
			}
			return err
		}
	}

	if opts.jsonPath != "" {
		if err := writeReport(opts, prior, priorOrder, priorDelta, priorLint, results); err != nil {
			if runErr != nil {
				return errors.Join(runErr, err)
			}
			return err
		}
	}
	return runErr
}

// writeTrace drains the span ring and writes it in the format the file
// extension selects: .jsonl gets one span record per line, anything
// else the Chrome trace_event array Perfetto loads directly.
func writeTrace(path string) error {
	spans, dropped := obs.DrainSpans()
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "dwmbench: trace ring overflowed, oldest %d spans dropped\n", dropped)
	}
	var buf bytes.Buffer
	var err error
	if strings.HasSuffix(path, ".jsonl") {
		err = obs.WriteSpansJSONL(&buf, spans)
	} else {
		// Validate before writing: a trace file that Perfetto rejects is
		// worse than an error, because nobody opens it until they need it.
		if err = obs.WriteTraceEvents(&buf, spans); err == nil {
			err = obs.ValidateTraceEvents(buf.Bytes())
		}
	}
	if err == nil {
		err = os.WriteFile(path, buf.Bytes(), 0o644)
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "dwmbench: wrote %d spans to %s\n", len(spans), path)
	return nil
}

// writeReport merges this run's completed experiments over the prior
// report and writes the result. Entries are ordered by the canonical
// suite order (bench.All()); prior entries for IDs no longer in the
// suite keep their original relative order at the end.
func writeReport(opts options, prior map[string]expReport, priorOrder []string, priorDelta *deltaBenchReport, priorLint *lintBenchReport, results []bench.RunResult) error {
	effWorkers := opts.workers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}
	merged := map[string]expReport{}
	for id, e := range prior {
		e.DeltaPct = nil // deltas describe the current run only
		merged[id] = e
	}
	for _, r := range results {
		if r.Err != nil || r.Table == nil {
			continue // failed/canceled experiments keep their prior entry
		}
		er := expReport{ID: r.ID, Name: r.Name, WallNS: r.Elapsed.Nanoseconds(), Cache: cacheOutcome(r)}
		if old, ok := prior[r.ID]; ok && old.WallNS > 0 {
			d := 100 * float64(er.WallNS-old.WallNS) / float64(old.WallNS)
			er.DeltaPct = &d
		}
		merged[r.ID] = er
	}

	rep := benchReport{Seed: opts.seed, Workers: effWorkers}
	emit := func(id string) {
		if e, ok := merged[id]; ok {
			rep.TotalNS += e.WallNS
			rep.Experiments = append(rep.Experiments, e)
			delete(merged, id)
		}
	}
	for _, e := range bench.All() {
		emit(e.ID)
	}
	for _, id := range priorOrder {
		emit(id)
	}
	snap := obs.Take()
	rep.Metrics = &snap
	rep.DeltaBench = priorDelta
	rep.LintBench = priorLint

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(opts.jsonPath, append(raw, '\n'), 0o644)
}
