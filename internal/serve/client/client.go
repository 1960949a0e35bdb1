// Package client is the resilient Go client for the dwmserved API: it
// submits placement jobs, waits for them to complete, and absorbs the
// transient failures a real deployment throws at callers — queue-full
// 429s, 5xx blips, connection resets, and server restarts.
//
// Wait long-polls: each GET asks the server to hold the answer until the
// job is terminal (GET /v1/jobs/{id}?wait=), so a result arrives as soon
// as the job finishes.
//
// The retry discipline:
//
//   - 429 responses are retried after exactly the server's Retry-After
//     hint (the server already jitters it deterministically per
//     request, so the client adds nothing).
//   - 5xx responses and transport errors (connection reset, refused —
//     the restart window) are retried with exponential backoff and
//     deterministic jitter derived from (request identity, attempt):
//     the same request retries on the same schedule every run, keeping
//     client behavior reproducible, while distinct requests decorrelate.
//   - 4xx responses other than 429 are permanent: the request is wrong,
//     and retrying cannot fix it.
//
// Resubmission is safe because Submit stamps the request's ClientKey
// with its deterministic identity (serve.RequestKey) unless the caller
// already chose a key: a retry that reaches a server which accepted the
// previous attempt — including one that recovered the acceptance from
// its journal after a crash — dedupes onto the original job instead of
// running twice.
//
// The package is clock-free (no time.Now): waiting is delegated to a
// sleep hook, which tests replace to run instantly and to record the
// exact schedule.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
)

// Options configures a Client. The zero value of every field selects a
// default; only BaseURL is required.
type Options struct {
	// BaseURL is the server's root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the transport; nil selects http.DefaultClient.
	HTTP *http.Client
	// DisableIdempotency stops Submit from stamping ClientKey, restoring
	// fire-and-duplicate semantics for callers that want N runs of the
	// same request to be N jobs.
	DisableIdempotency bool
	// Sleep replaces the waiting primitive (tests); nil selects a
	// context-aware sleep.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnRetry, when non-nil, observes every retry the client is about to
	// sleep through — the 429s and 5xx blips the retry loop otherwise
	// absorbs silently. Load generators (cmd/dwmload) use it to count
	// backpressure against an SLO budget. The hook must not block; it
	// runs inline in the retry loop.
	OnRetry func(RetryInfo)
}

// RetryInfo describes one retry the client is about to wait out.
type RetryInfo struct {
	// Op is the logical call ("submit", "get", "cancel", "stream.append",
	// ...), Attempt the 1-based try that just failed.
	Op      string
	Attempt int
	// Status is the HTTP status that triggered the retry, 0 for
	// transport errors (Err then carries the cause).
	Status int
	Err    error
	// Wait is how long the client will sleep before the next try.
	Wait time.Duration
}

// The retry schedule: at most maxAttempts tries per call (first try
// included), the first retry nominally baseBackoff after the failure,
// doubling per retry up to maxBackoff.
const (
	maxAttempts = 5
	baseBackoff = 200 * time.Millisecond
	maxBackoff  = 5 * time.Second
)

// Client talks to one dwmserved instance. It is safe for concurrent use
// when the underlying http.Client is (the default is).
type Client struct {
	opts  Options
	http  *http.Client
	sleep func(ctx context.Context, d time.Duration) error
}

// New builds a Client for the server at opts.BaseURL.
func New(opts Options) *Client {
	c := &Client{opts: opts, http: opts.HTTP, sleep: opts.Sleep}
	if c.http == nil {
		c.http = http.DefaultClient
	}
	if c.sleep == nil {
		c.sleep = sleepCtx
	}
	return c
}

// sleepCtx waits for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// APIError is a non-retryable HTTP failure from the server.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
}

// backoffFor computes attempt's retry delay (attempt is 1-based over
// completed tries): exponential growth capped at maxBackoff, with
// full jitter drawn deterministically from (key, attempt). The
// schedule is a pure function of the request identity, so a flaky run
// is reproducible, while distinct requests spread out.
func backoffFor(key string, attempt int) time.Duration {
	ceil := baseBackoff << (attempt - 1)
	if ceil > maxBackoff || ceil <= 0 {
		ceil = maxBackoff
	}
	var h uint64 = 0x9E3779B97F4A7C15
	for _, b := range []byte(key) {
		h = stats.Mix64(h ^ uint64(b))
	}
	frac := stats.Mix64(h + uint64(attempt)*0xD1B54A32D192ED03)
	// Full jitter in [ceil/2, ceil]: never less than half the nominal
	// delay (so retries still back off), never more than the cap.
	half := ceil / 2
	return half + time.Duration(frac%uint64(half+1))
}

// retryAfter parses a 429's Retry-After header, in seconds.
func retryAfter(resp *http.Response) (time.Duration, bool) {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// do POSTs or GETs once and classifies the outcome. A valid tc is
// injected as a traceparent header, the propagation half of
// cross-process tracing: the server extracts it and its spans land in
// the caller's trace.
func (c *Client) do(ctx context.Context, tc obs.TraceContext, method, path string, body []byte) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.opts.BaseURL+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tc.Valid() {
		req.Header.Set("traceparent", tc.TraceParent())
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return resp, nil, err
	}
	return resp, payload, nil
}

// apiMessage extracts the server's error envelope, falling back to the
// raw body.
func apiMessage(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(body)
}

// roundTrip runs one API call under the retry policy. key seeds the
// deterministic jitter and names the call for the OnRetry hook. The
// injected trace is the context's TraceContext when the caller attached
// one (Submit attaches the request's canonical trace), else a
// deterministic derivation from key — every request carries a
// traceparent, and equal calls carry equal traces.
func (c *Client) roundTrip(ctx context.Context, key, method, path string, body []byte, out any) error {
	tc, ok := obs.TraceFromContext(ctx)
	if !ok {
		tc = obs.DeriveTraceContext("client/" + key)
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		resp, payload, err := c.do(ctx, tc, method, path, body)
		var wait time.Duration
		status := 0
		switch {
		case err != nil:
			// Transport failure: connection reset/refused — the restart
			// window. Retry unless the context is the cause.
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
			wait = backoffFor(key, attempt)
		case resp.StatusCode == http.StatusTooManyRequests:
			status = resp.StatusCode
			lastErr = &APIError{Status: resp.StatusCode, Message: apiMessage(payload)}
			// Honor the server's hint exactly — it is already jittered per
			// request; fall back to our own backoff when the hint is absent.
			if d, ok := retryAfter(resp); ok {
				wait = d
			} else {
				wait = backoffFor(key, attempt)
			}
		case resp.StatusCode >= 500:
			status = resp.StatusCode
			lastErr = &APIError{Status: resp.StatusCode, Message: apiMessage(payload)}
			wait = backoffFor(key, attempt)
		case resp.StatusCode >= 400:
			return &APIError{Status: resp.StatusCode, Message: apiMessage(payload)}
		default:
			if out == nil {
				return nil
			}
			return json.Unmarshal(payload, out)
		}
		if attempt >= maxAttempts {
			return fmt.Errorf("client: %d attempts exhausted: %w", maxAttempts, lastErr)
		}
		if c.opts.OnRetry != nil {
			c.opts.OnRetry(RetryInfo{Op: key, Attempt: attempt, Status: status, Err: lastErr, Wait: wait})
		}
		if err := c.sleep(ctx, wait); err != nil {
			return err
		}
	}
}

// Submit sends a placement request and returns the accepted (or
// deduped) job's status. Unless DisableIdempotency is set or the caller
// supplied a ClientKey, the request is stamped with its deterministic
// identity key, so retries and resubmissions converge on one job.
func (c *Client) Submit(ctx context.Context, req serve.PlaceRequest) (serve.JobStatus, error) {
	if req.ClientKey == "" && !c.opts.DisableIdempotency {
		req.ClientKey = serve.RequestKey(req)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return serve.JobStatus{}, err
	}
	// Submissions travel under the request's canonical trace — the same
	// derivation the server falls back to — so the trace ID a caller
	// computes client-side (serve.RequestTrace) is the one that shows up
	// in the server's spans and the job's status, retries and idempotent
	// resubmissions included.
	if _, ok := obs.TraceFromContext(ctx); !ok {
		ctx = obs.ContextWithTrace(ctx, serve.RequestTrace(req))
	}
	var js serve.JobStatus
	if err := c.roundTrip(ctx, req.ClientKey+"/submit", http.MethodPost, "/v1/place", body, &js); err != nil {
		return serve.JobStatus{}, err
	}
	return js, nil
}

// waitWindow is how long one of Wait's GETs asks the server to hold the
// answer. A window that expires costs one more round trip, so its length
// only bounds how long a request sits in proxies and connection pools.
const waitWindow = 30 * time.Second

// Wait blocks until the job reaches a terminal state or ctx expires.
// Each GET long-polls for up to waitWindow; a non-terminal answer means
// the window expired, and the call is sent again at once.
func (c *Client) Wait(ctx context.Context, id string) (serve.JobStatus, error) {
	path := "/v1/jobs/" + id + "?wait=" + waitWindow.String()
	for {
		var js serve.JobStatus
		if err := c.roundTrip(ctx, id+"/get", http.MethodGet, path, nil, &js); err != nil {
			return serve.JobStatus{}, err
		}
		if js.Status == "done" || js.Status == "failed" {
			return js, nil
		}
	}
}

// Run is Submit followed by Wait: one call from request to result.
func (c *Client) Run(ctx context.Context, req serve.PlaceRequest) (serve.JobStatus, error) {
	js, err := c.Submit(ctx, req)
	if err != nil {
		return serve.JobStatus{}, err
	}
	if js.Status == "done" || js.Status == "failed" {
		return js, nil
	}
	return c.Wait(ctx, js.ID)
}

// CreateStream opens a streaming placement session.
func (c *Client) CreateStream(ctx context.Context, req serve.StreamRequest) (serve.StreamStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return serve.StreamStatus{}, err
	}
	var st serve.StreamStatus
	if err := c.roundTrip(ctx, "stream/create", http.MethodPost, "/v1/streams", body, &st); err != nil {
		return serve.StreamStatus{}, err
	}
	return st, nil
}

// AppendStream feeds a batch of accesses into a session and returns the
// resulting status. Appends are NOT idempotent on the server (each
// journaled batch is applied), so retries here can double-apply a batch
// whose response was lost; callers that need exactly-once should treat
// an AppendStream error as "stream state unknown" and re-read it.
func (c *Client) AppendStream(ctx context.Context, id string, accesses []int) (serve.StreamStatus, error) {
	body, err := json.Marshal(serve.StreamAppendRequest{Accesses: accesses})
	if err != nil {
		return serve.StreamStatus{}, err
	}
	var st serve.StreamStatus
	if err := c.roundTrip(ctx, id+"/append", http.MethodPost, "/v1/streams/"+id+"/append", body, &st); err != nil {
		return serve.StreamStatus{}, err
	}
	return st, nil
}

// DeleteStream closes a session and returns its final status.
func (c *Client) DeleteStream(ctx context.Context, id string) (serve.StreamStatus, error) {
	var st serve.StreamStatus
	if err := c.roundTrip(ctx, id+"/delete", http.MethodDelete, "/v1/streams/"+id, nil, &st); err != nil {
		return serve.StreamStatus{}, err
	}
	return st, nil
}
