package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestRunBadFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-nope"}, new(bytes.Buffer)); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunBadAddr(t *testing.T) {
	if err := run(context.Background(), []string{"-addr", "256.0.0.1:bogus"}, new(bytes.Buffer)); err == nil {
		t.Error("unlistenable address accepted")
	}
}

// waitAddrFile polls until the daemon writes its bound address.
func waitAddrFile(t *testing.T, path string) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		raw, err := os.ReadFile(path)
		if err == nil && len(raw) > 0 {
			return strings.TrimSpace(string(raw))
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("daemon never wrote its address file")
	return ""
}

func jobStatus(t *testing.T, base, id string) (serve.JobStatus, error) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return serve.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.JobStatus{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	var js serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		return serve.JobStatus{}, err
	}
	return js, nil
}

// The SIGTERM drill: with one job in flight, a termination signal must
// flip readiness to 503 immediately, let the job run to completion, and
// only then close the listener — an accepted job is never dropped.
func TestGracefulShutdownSIGTERM(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	before := obs.Default().Snapshot().Counters

	addrFile := filepath.Join(t.TempDir(), "addr")
	var out bytes.Buffer
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-addrfile", addrFile,
			"-workers", "1", "-drain", "60s",
		}, &out)
	}()
	base := "http://" + waitAddrFile(t, addrFile)

	// Submit one job slow enough to still be running when the signal
	// lands (several seconds of annealing on a 48-item trace).
	tr := workload.Zipf(48, 4000, 1.2, 7)
	var enc bytes.Buffer
	if err := trace.Encode(&enc, tr); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(serve.PlaceRequest{Trace: enc.String(), Seed: 3, Iterations: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/place", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var accepted serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || accepted.ID == "" {
		t.Fatalf("submit: status %d, body %+v", resp.StatusCode, accepted)
	}

	// Wait until the worker has actually picked the job up.
	deadline := time.Now().Add(15 * time.Second)
	for {
		js, err := jobStatus(t, base, accepted.ID)
		if err != nil {
			t.Fatal(err)
		}
		if js.Status == "running" {
			break
		}
		if js.Status != "queued" {
			t.Fatalf("job reached %q before the signal", js.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// Readiness must flip to 503 promptly, while the listener still
	// answers (the drain window).
	deadline = time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatalf("listener closed before the job drained: %v", err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped to 503 after SIGTERM")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Poll the job through the drain window. The listener closes the
	// instant the last job finishes, so a refused connection here just
	// means the drain completed between polls; the obs counters below
	// deliver the race-free verdict either way.
	var final *serve.JobStatus
	for {
		js, err := jobStatus(t, base, accepted.ID)
		if err != nil {
			break
		}
		if js.Status == "done" || js.Status == "failed" {
			final = &js
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final != nil {
		if final.Status != "done" || final.Result == nil {
			t.Fatalf("drained job: %+v", final)
		}
		if final.Result.Partial {
			t.Error("drained job marked partial; shutdown must not cut running jobs short")
		}
		if len(final.Result.Placement) != 48 || final.Result.Cost > final.Result.BaselineCost {
			t.Errorf("drained job result invalid: cost %d baseline %d items %d",
				final.Result.Cost, final.Result.BaselineCost, len(final.Result.Placement))
		}
	}

	if err := <-runErr; err != nil {
		t.Fatalf("run returned %v after graceful shutdown", err)
	}
	// The daemon shares this process's obs registry: exactly one job
	// completed, none failed, none were cut short by the shutdown.
	counters := obs.Default().Snapshot().Counters
	if got := counters["serve.jobs.done"] - before["serve.jobs.done"]; got != 1 {
		t.Errorf("jobs done during drill = %d, want 1", got)
	}
	for _, c := range []string{"serve.jobs.failed", "serve.jobs.partial"} {
		if got := counters[c] - before[c]; got != 0 {
			t.Errorf("%s = %d during drill, want 0 (accepted job was dropped or truncated)", c, got)
		}
	}
	if got := out.String(); !strings.Contains(got, "draining") || !strings.Contains(got, "drained, bye") {
		t.Errorf("missing shutdown log lines in output:\n%s", got)
	}

	// The listener is gone: new connections must fail.
	if resp, err := http.Get(base + "/healthz"); err == nil {
		resp.Body.Close()
		t.Error("listener still accepting connections after shutdown")
	}
}

// A cancelled context with no jobs in flight shuts down cleanly too.
func TestRunImmediateShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	addrFile := filepath.Join(t.TempDir(), "addr")
	var out bytes.Buffer
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{"-addr", "127.0.0.1:0", "-addrfile", addrFile}, &out)
	}()
	waitAddrFile(t, addrFile)
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("idle shutdown: %v", err)
	}
}

// startDaemon runs the daemon with args on a kernel-chosen port and
// returns its base URL and a stop function that cancels it and returns
// run's error.
func startDaemon(t *testing.T, out *bytes.Buffer, args ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrFile := filepath.Join(t.TempDir(), "addr")
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, append([]string{"-addr", "127.0.0.1:0", "-addrfile", addrFile}, args...), out)
	}()
	base := "http://" + waitAddrFile(t, addrFile)
	return base, func() error {
		cancel()
		return <-runErr
	}
}

// request sends one HTTP request and returns the status code and body.
func request(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestCacheAndJournalShareDir points -cache and -journal at one
// directory. The cache's log lives in its own subdirectory, so after a
// restart both replay intact: the journal serves the finished job by
// ID, and the cache answers a resubmission as a hit with the same
// result bytes.
func TestCacheAndJournalShareDir(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-workers", "1", "-cache", dir, "-journal", dir}

	var enc bytes.Buffer
	if err := trace.Encode(&enc, workload.Zipf(24, 2000, 1.2, 5)); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(serve.PlaceRequest{Trace: enc.String(), Seed: 3, Iterations: 20000})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	base, stop := startDaemon(t, &out, args...)
	code, raw := request(t, http.MethodPost, base+"/v1/place", body)
	var first serve.JobStatus
	if err := json.Unmarshal(raw, &first); err != nil || code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", code, raw)
	}
	_, raw = request(t, http.MethodGet, base+"/v1/jobs/"+first.ID+"?wait=30s", nil)
	if err := json.Unmarshal(raw, &first); err != nil || first.Status != "done" {
		t.Fatalf("job did not finish: %s", raw)
	}
	want, err := json.Marshal(first.Result)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("first daemon: %v", err)
	}

	out.Reset()
	base, stop = startDaemon(t, &out, args...)
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("second daemon: %v", err)
		}
	}()
	if !strings.Contains(out.String(), "(1 entries loaded)") {
		t.Fatalf("cache did not replay its entry:\n%s", out.String())
	}
	var replayed, hit serve.JobStatus
	_, raw = request(t, http.MethodGet, base+"/v1/jobs/"+first.ID, nil)
	if err := json.Unmarshal(raw, &replayed); err != nil || replayed.Status != "done" {
		t.Fatalf("journal did not replay job %s: %s", first.ID, raw)
	}
	_, raw = request(t, http.MethodPost, base+"/v1/place", body)
	if err := json.Unmarshal(raw, &hit); err != nil || !hit.CacheHit {
		t.Fatalf("resubmission after restart was not a cache hit: %s", raw)
	}
	for name, st := range map[string]serve.JobStatus{"replayed job": replayed, "cache hit": hit} {
		got, err := json.Marshal(st.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s result differs from the original:\n got %s\nwant %s", name, got, want)
		}
	}
}
