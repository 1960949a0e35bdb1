package main

// This file times the layers from outside, at public seams only: an
// in-memory span recorder, an http.Handler middleware around the
// service's handler, a wal.FS wrapper around the real filesystem, and an
// http.RoundTripper wrapper in the client. The process-wide obs tracer
// stays off; these probes record only while a recorder is installed, so
// an untraced run pays one atomic load per call.

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// spanRecord is one timed interval. Start and End are nanoseconds since
// the recorder was created. Spans of one serving request share Trace
// (the request's trace ID) and link to their caller through Parent.
type spanRecord struct {
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Route classifies HTTP spans (place, job, append, other) and client
	// requests (place, append, hit); Status is a round trip's HTTP status
	// (0 for a transport error); Size is the bytes of a journal write,
	// the accesses a simulation served, or the proposals an anneal ran.
	Route  string `json:"route,omitempty"`
	Status int    `json:"status,omitempty"`
	Size   int64  `json:"size,omitempty"`
}

func (s spanRecord) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []spanRecord //dwmlint:guard mu
}

func newRecorder() *recorder { return &recorder{epoch: now()} }

// clock returns the recorder's time in nanoseconds.
func (r *recorder) clock() int64 {
	if r == nil {
		return 0
	}
	return int64(now().Sub(r.epoch))
}

// newID reserves a span ID, for spans whose children start before they end.
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// end records s as ending now, assigning an ID when s has none.
func (r *recorder) end(s spanRecord) {
	if r == nil {
		return
	}
	s.End = r.clock()
	if s.ID == 0 {
		s.ID = r.newID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []spanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]spanRecord(nil), r.spans...)
}

// writeJSONL writes one span per line.
func writeJSONL(w io.Writer, spans []spanRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// spanCtx is what a traced client call carries in its context: where to
// record, the request's trace ID, and the span its round trips belong to.
type spanCtx struct {
	rec    *recorder
	trace  string
	parent uint64
}

type spanCtxKey struct{}

func withSpan(ctx context.Context, sc spanCtx) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

func spanFrom(ctx context.Context) (spanCtx, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(spanCtx)
	return sc, ok && sc.rec != nil
}

// spanHeader carries a traced round trip's span ID to the server-side
// middleware, which records the handler span as its child.
const spanHeader = "X-Benchmark-Span"

// route classifies a request to the placement API.
func route(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/place":
		return reqPlace
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		return "job"
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/append"):
		return reqAppend
	}
	return "other"
}

// probes is the switch shared by the server-side seams: spans are
// recorded while a recorder is installed.
type probes struct {
	rec atomic.Pointer[recorder]
}

// handler wraps the service's HTTP handler. It records a handler span
// for every request a traced round trip sent.
func (p *probes) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := p.rec.Load()
		parent, err := strconv.ParseUint(r.Header.Get(spanHeader), 16, 64)
		if rec == nil || err != nil {
			next.ServeHTTP(w, r)
			return
		}
		tc, _ := obs.ParseTraceParent(r.Header.Get("traceparent"))
		start := rec.clock()
		next.ServeHTTP(w, r)
		rec.end(spanRecord{Name: "serve.handler", Trace: tc.TraceID, Parent: parent, Start: start, Route: route(r)})
	})
}

// fs wraps the journal's filesystem, timing every write and fsync.
func (p *probes) fs(base wal.FS) wal.FS { return tapFS{FS: base, p: p} }

type tapFS struct {
	wal.FS
	p *probes
}

func (f tapFS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tapFile{File: file, p: f.p}, nil
}

type tapFile struct {
	wal.File
	p *probes
}

func (f tapFile) Write(b []byte) (int, error) {
	rec := f.p.rec.Load()
	start := rec.clock()
	n, err := f.File.Write(b)
	rec.end(spanRecord{Name: "wal.write", Start: start, Size: int64(n)})
	return n, err
}

func (f tapFile) Sync() error {
	rec := f.p.rec.Load()
	start := rec.clock()
	err := f.File.Sync()
	rec.end(spanRecord{Name: "wal.sync", Start: start})
	return err
}

// tapTransport wraps the client's transport. A traced call gets a
// client.roundtrip span that ends when the client closes the response
// body, so it covers the whole exchange the server's handler span sits in.
type tapTransport struct{ base http.RoundTripper }

func (t tapTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sc, ok := spanFrom(req.Context())
	if !ok {
		return t.base.RoundTrip(req)
	}
	span := spanRecord{Name: "client.roundtrip", ID: sc.rec.newID(), Trace: sc.trace, Parent: sc.parent, Route: route(req)}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(span.ID, 16))
	span.Start = sc.rec.clock()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sc.rec.end(span)
		return nil, err
	}
	span.Status = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: sc.rec, span: span}
	return resp, nil
}

// spanBody ends its round-trip span when the body is closed.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	span spanRecord
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.rec.end(b.span) })
	return err
}
