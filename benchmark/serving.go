package main

// The serving workloads drive dwmserved's stack in-process: serve.New
// with a SyncAlways journal, an HTTP listener on loopback, and the stock
// client with default options (so client.Wait polls every 50 ms).

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/wal"
)

// maxInflight bounds the open loop's concurrent requests (and so its
// goroutines); the loop waits for a slot, which shows as scheduling lag.
const maxInflight = 256

// serveEnv is one running service with its journal, listener and client.
type serveEnv struct {
	dir     string
	jl      *wal.Log
	srv     *serve.Server
	httpSrv *http.Server
	served  group
	tr      *http.Transport
	cl      *client.Client
	streams []string
}

// startServe builds the service and primes it for the workload: the
// serve-place streams are opened, and for serve-hit the original
// numbering of every kernel is placed once so its renumbered twins hit
// the cache.
func startServe(ctx context.Context, s spec, seed int64, plan *servePlan, scratch string, pr *probes) (env *serveEnv, err error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	env = &serveEnv{}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	if env.dir, err = os.MkdirTemp(scratch, "wal-"); err != nil {
		return env, err
	}
	if env.jl, err = wal.Open(wal.Options{Dir: env.dir, MetricsPrefix: "serve.wal", FS: pr.fs(wal.OS())}); err != nil {
		return env, err
	}
	if env.srv, err = serve.New(serve.Options{Journal: env.jl}); err != nil {
		return env, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return env, err
	}
	env.httpSrv = &http.Server{Handler: pr.handler(env.srv.Handler())}
	env.served.Go(func() { _ = env.httpSrv.Serve(ln) })
	nproc := runtime.NumCPU()
	env.tr = &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	env.cl = client.New(client.Options{
		BaseURL: "http://" + ln.Addr().String(),
		HTTP:    &http.Client{Transport: tapTransport{base: env.tr}},
	})

	switch s.Name {
	case "serve-place":
		for i := 0; i < streamCount; i++ {
			st, err := env.cl.CreateStream(ctx, serve.StreamRequest{
				Name: fmt.Sprintf("benchmark-%d", i), Items: streamItems, Seed: subSeed(seed, fmt.Sprint("stream", i)),
			})
			if err != nil {
				return env, err
			}
			env.streams = append(env.streams, st.ID)
		}
	case "serve-hit":
		var g group
		errs := make([]error, len(plan.Kernels))
		var next atomic.Int64
		for c := 0; c < nproc; c++ {
			g.Go(func() {
				for k := int(next.Add(1) - 1); k < len(plan.Kernels); k = int(next.Add(1) - 1) {
					r := request{Phase: "setup", Kind: reqPlace, Kernel: k, Seed: hitSeed(seed)}
					if o := env.do(ctx, plan, r, nil); o.err != nil {
						errs[k] = fmt.Errorf("priming %s: %w", plan.Kernels[k].Name, o.err)
					}
				}
			})
		}
		g.Wait()
		if err := errors.Join(errs...); err != nil {
			return env, err
		}
	}
	return env, nil
}

// close shuts the service down and removes its journal. Closing twice
// is harmless.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if e.srv != nil {
		_ = e.srv.Shutdown(ctx)
		e.srv = nil
	}
	if e.httpSrv != nil {
		_ = e.httpSrv.Shutdown(ctx)
		e.httpSrv = nil
	}
	e.served.Wait()
	if e.tr != nil {
		e.tr.CloseIdleConnections()
		e.tr = nil
	}
	if e.jl != nil {
		_ = e.jl.Close()
		e.jl = nil
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
		e.dir = ""
	}
}

// outcome is the result of one request.
type outcome struct {
	kind    string
	kernel  int
	ms      float64 // from the scheduled send time (open loop) or the call
	lag     float64 // how late the open loop sent it, ms
	cost    int64
	base    int64
	err     error
	hasCost bool
}

// do sends one request and checks the response. With a recorder it
// records the request's client spans; the round-trip and handler spans
// hang off them.
func (e *serveEnv) do(ctx context.Context, plan *servePlan, r request, rec *recorder) outcome {
	o := outcome{kind: r.Kind, kernel: r.Kernel}
	id := fmt.Sprintf("benchmark/%s/%s/%d/%d", r.Phase, r.Kind, r.Index, r.Kernel)
	tc := obs.DeriveTraceContext(id)
	ctx = obs.ContextWithTrace(ctx, tc)
	root := rec.newID()
	start := rec.clock()
	call := func(name string, fn func(context.Context) error) error {
		id := rec.newID()
		t := rec.clock()
		err := fn(withSpan(ctx, spanCtx{rec: rec, trace: tc.TraceID, parent: id}))
		rec.end(spanRecord{Name: name, ID: id, Trace: tc.TraceID, Parent: root, Start: t})
		return err
	}
	defer func() {
		rec.end(spanRecord{Name: "client.request", ID: root, Trace: tc.TraceID, Start: start, Route: r.Kind})
	}()

	if r.Kind == reqAppend {
		var st serve.StreamStatus
		err := call("client.append", func(ctx context.Context) (err error) {
			st, err = e.cl.AppendStream(ctx, e.streams[r.Stream], r.Accesses)
			return err
		})
		if err == nil {
			err = checkStream(st)
		}
		o.err = err
		return o
	}

	k := plan.Kernels[r.Kernel]
	req := serve.PlaceRequest{Trace: k.Variants[r.Variant], Seed: r.Seed}
	if r.Kind == reqHit {
		// The hit variants repeat, so each request gets its own key; the
		// default key (the request's identity) would dedupe repeats onto
		// the first job instead of exercising the cache.
		req.ClientKey = id
	}
	var js serve.JobStatus
	err := call("client.submit", func(ctx context.Context) (err error) {
		js, err = e.cl.Submit(ctx, req)
		return err
	})
	if err == nil && js.Status != "done" && js.Status != "failed" {
		if r.Kind == reqHit {
			err = fmt.Errorf("%s: hit request answered %q, not a finished cache hit", k.Name, js.Status)
		} else {
			err = call("client.wait", func(ctx context.Context) (err error) {
				js, err = e.cl.Wait(ctx, js.ID)
				return err
			})
		}
	}
	if err == nil {
		err = checkJob(js, k, r)
	}
	if err != nil {
		o.err = err
		return o
	}
	o.cost, o.base, o.hasCost = js.Result.Cost, js.Result.BaselineCost, true
	return o
}

// checkJob verifies a finished placement: a full result whose placement
// is a permutation, never worse than program order, with the cost the
// service reported when re-costed on the request's own trace. A serve-hit
// request must have been answered from the cache.
func checkJob(js serve.JobStatus, k kernel, r request) error {
	switch {
	case js.Status != "done":
		return fmt.Errorf("%s: job %s ended %q: %s", k.Name, js.ID, js.Status, js.Error)
	case js.Result == nil:
		return fmt.Errorf("%s: job %s has no result", k.Name, js.ID)
	case js.Result.Partial:
		return fmt.Errorf("%s: job %s returned a partial result", k.Name, js.ID)
	case r.Kind == reqHit && !js.CacheHit:
		return fmt.Errorf("%s: variant %d missed the cache", k.Name, r.Variant)
	}
	if err := checkPlacement(js.Result.Placement, k.Items); err != nil {
		return fmt.Errorf("%s: %w", k.Name, err)
	}
	c, err := cost.Linear(k.graphs[r.Variant], js.Result.Placement)
	if err != nil {
		return err
	}
	if c != js.Result.Cost || c > js.Result.BaselineCost {
		return fmt.Errorf("%s: re-costed %d, service reported %d (baseline %d)", k.Name, c, js.Result.Cost, js.Result.BaselineCost)
	}
	return nil
}

// checkStream verifies an append's status: a permutation of the stream's
// items after a whole number of batches.
func checkStream(st serve.StreamStatus) error {
	if st.Items != streamItems || st.Accesses <= 0 || st.Accesses%appendLen != 0 {
		return fmt.Errorf("stream %s: %d items after %d accesses", st.ID, st.Items, st.Accesses)
	}
	return checkPlacement(st.Placement, streamItems)
}

// openLoop sends each request at its scheduled time, whether or not
// earlier ones have finished, and times it from that scheduled time.
// Requests for which traced returns true are traced with rec. It also
// returns the most requests that were ever in flight at once.
func (e *serveEnv) openLoop(ctx context.Context, plan *servePlan, reqs []request, rec *recorder, traced func(int) bool) ([]outcome, int) {
	out := make([]outcome, len(reqs))
	sem := make(chan struct{}, maxInflight)
	var inflight, peak atomic.Int64
	var g group
	start := now()
	for i := range reqs {
		due := start.Add(reqs[i].At)
		sleepUntil(due)
		lag := ms(now().Sub(due))
		sem <- struct{}{}
		var r *recorder
		if traced(i) {
			r = rec
		}
		g.Go(func() {
			defer func() { <-sem }()
			n := inflight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			o := e.do(ctx, plan, reqs[i], r)
			inflight.Add(-1)
			o.ms = ms(now().Sub(due))
			o.lag = lag
			out[i] = o
		})
	}
	g.Wait()
	return out, int(peak.Load())
}

// closedLoop runs the requests with callers workers, each sending its
// next request when the previous one returns, and reports the elapsed
// seconds.
func (e *serveEnv) closedLoop(ctx context.Context, plan *servePlan, reqs []request, callers int) ([]outcome, float64) {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var g group
	start := now()
	for c := 0; c < callers; c++ {
		g.Go(func() {
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				t := now()
				out[i] = e.do(ctx, plan, reqs[i], nil)
				out[i].ms = ms(now().Sub(t))
			}
		})
	}
	g.Wait()
	return out, seconds(start)
}

// runServe measures one serving workload: setup (repeated, median
// reported), an untimed open-loop warm-up, and the open-loop main phase
// that yields the latencies. A traced run traces the odd request of every
// main-phase pair, compares it with its untraced twin, and ends with a
// closed-loop saturation phase of satCallers·nproc callers that yields
// the capacity.
func runServe(ctx context.Context, s spec, cfg config) (*result, error) {
	pr := &probes{}
	var plan *servePlan
	var env *serveEnv
	setups, err := repeatSetup(cfg, func() (err error) {
		if plan, err = planServe(s, cfg.Seed, cfg.Seconds); err != nil {
			return err
		}
		env, err = startServe(ctx, s, cfg.Seed, plan, cfg.Scratch, pr)
		return err
	}, func() { env.close() })
	if env != nil {
		defer func() { env.close() }()
	}
	if err != nil {
		return nil, err
	}

	res := &result{Workload: s.Name}
	heap := startHeapSampler()
	untraced := func(int) bool { return false }
	warm, _ := env.openLoop(ctx, plan, plan.Warm, nil, untraced)

	var rec *recorder
	traced := untraced
	if cfg.Trace {
		rec = newRecorder()
		pr.rec.Store(rec)
		traced = func(i int) bool { return i%2 == 1 }
	}
	obsBefore, memBefore := takeObs(), readMem()
	main, inflight := env.openLoop(ctx, plan, plan.Main, rec, traced)
	obsAfter, memAfter := takeObs(), readMem()
	pr.rec.Store(nil)
	live := liveHeapMB()

	// The traced run goes on to measure capacity, on a fresh service: the
	// old one keeps every job the open loop sent, and that heap would slow
	// its GC.
	var sat []outcome
	var satSeconds float64
	if cfg.Trace {
		env.close()
		if env, err = startServe(ctx, s, cfg.Seed, plan, cfg.Scratch, pr); err != nil {
			heap.Stop()
			return nil, err
		}
		sat, satSeconds = env.closedLoop(ctx, plan, plan.Sat, satCallers*runtime.NumCPU())
	}
	peak := heap.Stop()

	var lat, lags []float64
	q := make(quality, len(plan.Kernels))
	best := make(fastest, len(plan.Kernels))
	sloMisses, mainFailed := 0, 0
	tally := func(o outcome) {
		res.Attempted++
		if o.err != nil {
			res.fail(o.err)
		} else if o.hasCost {
			q.add(o.kernel, float64(o.cost), randomLayoutCost(plan.Kernels[o.kernel].graphs[0]), float64(o.base))
		}
	}
	for _, o := range warm {
		tally(o)
	}
	for _, o := range sat {
		tally(o)
	}
	for _, o := range main {
		tally(o)
		lags = append(lags, o.lag)
		if o.err != nil {
			mainFailed++
		} else {
			lat = append(lat, o.ms)
			if o.kind != reqAppend {
				best.add(o.kernel, o.ms)
			}
		}
		if o.err != nil || o.ms > s.SLOms[o.kind] {
			sloMisses++
		}
	}

	m := metricSet{}
	m.set("setup_s", quantile(setups, 0.5))
	m.set("latency_ms_best", best.median())
	shift, program, ok := q.ratios()
	m.setIf("shift_ratio", shift, ok)
	m.set("heap_live_mb", live)
	res.EndToEnd = m.list(endToEnd)
	if cfg.Trace {
		res.Spans = rec.snapshot()
		layers := perLayerMetrics(layerInput{
			spans:     res.Spans,
			obs:       obsDelta{obsBefore, obsAfter},
			mem:       memDelta{memBefore, memAfter},
			ops:       len(main),
			lat:       lat,
			opsPerS:   float64(len(sat)) / satSeconds,
			lags:      lags,
			inflight:  inflight,
			overhead:  pairOverhead(main),
			heapPeak:  peak,
			sloMisses: sloMisses,
			failed:    mainFailed,
		})
		layers.setIf("core.program_order_ratio", program, ok)
		res.PerLayer = layers.list(perLayer)
	}
	return res, nil
}

// pairOverhead compares the traced (odd) request of every main-phase pair
// with its untraced (even) twin of the same kind and kernel.
func pairOverhead(main []outcome) float64 {
	var pairs [][2]float64
	for i := 1; i < len(main); i += 2 {
		if main[i].err == nil && main[i-1].err == nil {
			pairs = append(pairs, [2]float64{main[i].ms, main[i-1].ms})
		}
	}
	return overheadPct(pairs)
}
