// Command dwmload is the scenario-driven load generator and SLO harness
// for dwmserved (DESIGN.md §16). It expands a declarative scenario into
// a deterministic request plan (scenario.go), offers it through the
// resilient API client under a worker pool, measures client-side
// latency, scrapes /metrics around the run, and emits an SLO report
// (report.go) as JSON and a rendered table.
//
//	dwmload [-scenario FILE] -addr http://127.0.0.1:8080 -out BENCH_dwmload.json
//
// Without -scenario it runs the built-in smoke scenario. The whole run
// must finish within runTimeout. Exit status: 0 on success, 1 when the
// scenario's SLO budget is violated, 2 on setup/usage errors.
//
// This file is the package's only impure one — it reads the wall clock
// (latency measurement) and launches the worker goroutines; the
// plan and report it feeds stay pure functions of their inputs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve/client"
)

// runTimeout bounds the whole run: plan, load and both metric scrapes.
const runTimeout = 5 * time.Minute

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dwmload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:8080", "base URL of the dwmserved instance under test")
	scenarioPath := fs.String("scenario", "", "path to a scenario JSON file (default: the built-in smoke scenario)")
	out := fs.String("out", "BENCH_dwmload.json", "path for the JSON SLO report (empty to skip)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	sc, err := loadScenario(*scenarioPath)
	if err != nil {
		fmt.Fprintf(stderr, "dwmload: %v\n", err)
		return 2
	}
	plan, err := BuildPlan(sc)
	if err != nil {
		fmt.Fprintf(stderr, "dwmload: %v\n", err)
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()

	var retries retryCounter
	cli := client.New(client.Options{
		BaseURL: *addr,
		// Every planned request is meant to be offered: cache_hit entries
		// repeat one request on purpose so the server's placement cache —
		// not the client's idempotency key — absorbs the repeats.
		DisableIdempotency: true,
		OnRetry:            retries.observe,
	})

	metricsBefore := scrapeMetrics(ctx, *addr)

	samples, elapsedMS := drive(ctx, cli, sc, plan)

	metricsAfter := scrapeMetrics(ctx, *addr)

	report := BuildReport(sc, samples, retries.snapshot(), elapsedMS, metricsBefore, metricsAfter)
	if *out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "dwmload: marshal report: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "dwmload: write %s: %v\n", *out, err)
			return 2
		}
	}
	fmt.Fprint(stdout, RenderTable(report))
	if report.SLO != nil && !report.SLO.Pass {
		fmt.Fprintf(stderr, "dwmload: SLO violated (%d violations)\n", len(report.SLO.Violations))
		return 1
	}
	return 0
}

// loadScenario parses the -scenario file, or returns the built-in smoke
// scenario when path is empty.
func loadScenario(path string) (*Scenario, error) {
	if path == "" {
		return SmokeScenario(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseScenario(f)
}

// retryCounter classifies OnRetry callbacks into the report's buckets.
type retryCounter struct {
	backpressure atomic.Int64
	server       atomic.Int64
	transport    atomic.Int64
}

func (rc *retryCounter) observe(ri client.RetryInfo) {
	switch {
	case ri.Status == http.StatusTooManyRequests:
		rc.backpressure.Add(1)
	case ri.Status >= 500:
		rc.server.Add(1)
	default:
		rc.transport.Add(1)
	}
}

func (rc *retryCounter) snapshot() RetryCount {
	return RetryCount{
		Backpressure429: rc.backpressure.Load(),
		Transient5xx:    rc.server.Load(),
		Transport:       rc.transport.Load(),
	}
}

// drive offers the plan through a worker pool and collects one sample
// per request, keyed by request index so worker scheduling never changes
// the report's content. Returns the samples and the run's wall time.
func drive(ctx context.Context, cli *client.Client, sc *Scenario, plan []PlannedRequest) ([]Sample, int64) {
	samples := make([]Sample, len(plan))
	indices := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < sc.concurrency(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range indices {
				samples[idx] = oneRequest(ctx, cli, plan[idx])
			}
		}()
	}
	for i := range plan {
		indices <- i
	}
	close(indices)
	wg.Wait()
	return samples, time.Since(t0).Milliseconds()
}

// oneRequest executes a single planned request and measures it.
func oneRequest(ctx context.Context, cli *client.Client, pr PlannedRequest) Sample {
	s := Sample{Index: pr.Index, Kind: pr.Kind, Tenant: pr.Tenant, TraceID: pr.TraceID}
	start := time.Now()
	switch {
	case pr.Place != nil:
		js, err := cli.Run(ctx, *pr.Place)
		s.ClientMS = float64(time.Since(start)) / float64(time.Millisecond)
		switch {
		case err != nil:
			s.Err = err.Error()
		case js.Status == "failed":
			s.Err = js.Error
		default:
			s.ServerMS = js.ElapsedMS
			s.CacheHit = js.CacheHit
		}
	case pr.Stream != nil:
		s.Err = runStream(ctx, cli, pr.Stream)
		s.ClientMS = float64(time.Since(start)) / float64(time.Millisecond)
	}
	return s
}

// runStream executes one stream plan: create, append every batch in
// order, delete. Returns the first error's message, or "".
func runStream(ctx context.Context, cli *client.Client, sp *StreamPlan) string {
	st, err := cli.CreateStream(ctx, sp.Req)
	if err != nil {
		return fmt.Sprintf("create: %v", err)
	}
	for i, batch := range sp.Batches {
		if _, err := cli.AppendStream(ctx, st.ID, batch); err != nil {
			return fmt.Sprintf("append %d: %v", i, err)
		}
	}
	if _, err := cli.DeleteStream(ctx, st.ID); err != nil {
		return fmt.Sprintf("delete: %v", err)
	}
	return ""
}

// scrapeMetrics fetches the server's raw /metrics exposition; a failed
// scrape returns "" and the report simply omits the diff.
func scrapeMetrics(ctx context.Context, addr string) string {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/metrics", nil)
	if err != nil {
		return ""
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ""
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return ""
	}
	return string(data)
}
