// Command benchmark is the repository's end-to-end benchmark. It runs four
// workloads against the placement library and the placement service,
// checks every output, and prints each metric with its unit:
//
//	go run . -workload serve-hit -seed 3 -seconds 20 -trace 0
//
// With -workload all (the default) it runs every workload in turn. The
// last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics by default, the
// per-layer metrics with -trace 1. See README.md for the workloads, the
// metrics and how to compare two commits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Scratch string
	// Pool overrides every offline workload's pool size and SetupReps the
	// number of set-ups whose median is setup_s; zero keeps the defaults
	// (the spec's pool; see repeatSetup). The quick test lowers both.
	Pool      int
	SetupReps int
}

// Set-up repeats at least minSetups times and for at least setupSeconds.
const (
	minSetups    = 5
	setupSeconds = 1.0
)

// repeatSetup runs setup repeatedly and returns how long each run took;
// between runs, teardown (when not nil) undoes the previous one, untimed.
// setup_s is their median. A set-up of a few milliseconds is repeated for
// a whole second, so that its median holds still while the neighbours'
// load comes and goes; cfg.SetupReps, when set, fixes the count instead.
func repeatSetup(cfg config, setup func() error, teardown func()) ([]float64, error) {
	var took []float64
	start := now()
	for {
		n := len(took)
		if cfg.SetupReps > 0 && n == cfg.SetupReps ||
			cfg.SetupReps == 0 && n >= minSetups && seconds(start) >= setupSeconds {
			return took, nil
		}
		if n > 0 && teardown != nil {
			teardown()
		}
		t := now()
		if err := setup(); err != nil {
			return nil, err
		}
		took = append(took, seconds(t))
	}
}

// result is one workload's outcome.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	Errors    []string
	EndToEnd  []metric
	PerLayer  []metric
	Spans     []spanRecord
	Wall      float64
}

// fail counts a failed operation, keeping the first few messages.
func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

func runWorkload(ctx context.Context, s spec, cfg config) (*result, error) {
	t := now()
	var res *result
	var err error
	if s.Kind == kindOffline {
		res, err = runOffline(ctx, s, cfg)
	} else {
		res, err = runServe(ctx, s, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	res.Wall = seconds(t)
	return res, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags, runs the workloads and reports. It returns 0 when
// every output check passed, 1 when any failed, and 2 on a usage or
// set-up error (in which case no result line is printed).
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workloadFlag := fl.String("workload", "all", "workload to run: all, or one of "+strings.Join(specNames(), ", "))
	seed := fl.Int64("seed", 1, "seed all inputs are generated from")
	secs := fl.Float64("seconds", 20, "length of each workload's measured phase")
	traceFlag := fl.Int("trace", 0, "1 runs the traced pass: spans recorded, per-layer metrics reported")
	spansFile := fl.String("spans", "", "with -trace 1, write the recorded spans as JSONL to this file")
	jsonFile := fl.String("json", "", "also write every metric and the run's provenance as JSON to this file")
	scratch := fl.String("scratch", ".bench_build", "directory for the service's journal files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if *secs <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	var todo []spec
	if *workloadFlag == "all" {
		todo = specs
	} else if s, ok := specByName(*workloadFlag); ok {
		todo = []spec{s}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want all, %s)\n", *workloadFlag, strings.Join(specNames(), ", "))
		return 2
	}
	cfg := config{Seed: *seed, Seconds: *secs, Trace: *traceFlag == 1, Scratch: *scratch}

	prov := provenance(cfg, todo)
	for _, kv := range prov.lines() {
		fmt.Fprintf(stdout, "# %s\n", kv)
	}
	var results []*result
	var spans []spanRecord
	code := 0
	for _, s := range todo {
		res, err := runWorkload(context.Background(), s, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		results = append(results, res)
		spans = append(spans, res.Spans...)
		printResult(stdout, res, cfg.Trace)
		for _, e := range res.Errors {
			fmt.Fprintf(stderr, "benchmark: %s: %s\n", s.Name, e)
		}
		if !res.correct() {
			code = 1
		}
	}
	prov.Durations = map[string]float64{}
	for _, r := range results {
		prov.Durations[r.Workload] = r.Wall
	}
	if *jsonFile != "" {
		if err := writeReport(*jsonFile, prov, results); err != nil {
			fmt.Fprintln(stderr, "benchmark: -json:", err)
			code = 2
		}
	}
	if *spansFile != "" {
		if err := writeSpans(*spansFile, spans); err != nil {
			fmt.Fprintln(stderr, "benchmark: -spans:", err)
			code = 2
		}
	}
	return code
}

func specNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	return names
}

// prov is the run's provenance: what ran, where, and from which source.
type prov struct {
	GitRevision string             `json:"git_revision"`
	GitDirty    string             `json:"git_dirty"`
	GoVersion   string             `json:"go_version"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	NProc       int                `json:"nproc"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Workloads   []string           `json:"workloads"`
	ConfigHash  string             `json:"config_hash"`
	StartTime   string             `json:"start_time"`
	Durations   map[string]float64 `json:"durations_s,omitempty"`
}

func provenance(cfg config, todo []spec) prov {
	p := prov{
		GitRevision: "unknown",
		GitDirty:    "unknown",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		Seed:        cfg.Seed,
		Seconds:     cfg.Seconds,
		Trace:       cfg.Trace,
		ConfigHash:  configHash(cfg),
		StartTime:   now().UTC().Format(time.RFC3339),
	}
	for _, s := range todo {
		p.Workloads = append(p.Workloads, s.Name)
	}
	if rev, err := git("rev-parse", "HEAD"); err == nil {
		p.GitRevision = strings.TrimSpace(rev)
		if st, err := git("status", "--porcelain"); err == nil {
			p.GitDirty = fmt.Sprint(strings.TrimSpace(st) != "")
		}
	}
	return p
}

func (p prov) lines() []string {
	return []string{
		fmt.Sprintf("git_revision: %s  git_dirty: %s", p.GitRevision, p.GitDirty),
		fmt.Sprintf("go_version: %s  gomaxprocs: %d  nproc: %d", p.GoVersion, p.GOMAXPROCS, p.NProc),
		fmt.Sprintf("seed: %d  seconds: %g  trace: %v  config_hash: %s", p.Seed, p.Seconds, p.Trace, p.ConfigHash),
		fmt.Sprintf("workloads: %s  start_time: %s", strings.Join(p.Workloads, ","), p.StartTime),
	}
}

// git runs a read-only git command in the working directory.
func git(args ...string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", args...).Output()
	return string(out), err
}

// printResult prints one workload's table and then its result line, the
// JSON object whose metrics are the end-to-end set, or the per-layer set
// in a traced run.
func printResult(w io.Writer, r *result, traced bool) {
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d, wall %.1f s\n", r.Workload, r.Attempted, r.Failed, r.Wall)
	report := r.EndToEnd
	if traced {
		fmt.Fprintln(w, "  end-to-end (traced run, for reference):")
		printMetrics(w, r.EndToEnd)
		fmt.Fprintln(w, "  per-layer:")
		report = r.PerLayer
	}
	printMetrics(w, report)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]value{}}
	for _, m := range report {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, _ := json.Marshal(line)
	fmt.Fprintln(w, string(b))
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		if m.Absent {
			fmt.Fprintf(w, "    %-32s %14s  %s\n", m.Name, "absent", m.Unit)
			continue
		}
		fmt.Fprintf(w, "    %-32s %14.6g  %s\n", m.Name, m.Value, m.Unit)
	}
}

// writeReport writes the machine-readable report: provenance plus every
// workload's metrics with units.
func writeReport(path string, p prov, results []*result) error {
	type value struct {
		Value  float64 `json:"value"`
		Unit   string  `json:"unit"`
		Absent bool    `json:"absent,omitempty"`
	}
	type entry struct {
		Workload  string           `json:"workload"`
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Errors    []string         `json:"errors,omitempty"`
		EndToEnd  map[string]value `json:"end_to_end"`
		PerLayer  map[string]value `json:"per_layer,omitempty"`
	}
	doc := struct {
		Provenance prov    `json:"provenance"`
		Results    []entry `json:"results"`
	}{Provenance: p}
	for _, r := range results {
		e := entry{Workload: r.Workload, Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Errors: r.Errors,
			EndToEnd: map[string]value{}}
		for _, m := range r.EndToEnd {
			e.EndToEnd[m.Name] = value{m.Value, m.Unit, m.Absent}
		}
		if r.PerLayer != nil {
			e.PerLayer = map[string]value{}
			for _, m := range r.PerLayer {
				e.PerLayer[m.Name] = value{m.Value, m.Unit, m.Absent}
			}
		}
		doc.Results = append(doc.Results, e)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeSpans(path string, spans []spanRecord) error {
	if spans == nil {
		return errors.New("no spans recorded; -spans needs -trace 1")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeJSONL(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
