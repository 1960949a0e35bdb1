// Command dwmserved is the placement service: an HTTP/JSON daemon that
// accepts trace uploads, runs placement jobs on a bounded worker pool,
// and serves results, health, and metrics. See internal/serve for the
// API and DESIGN.md §10 for the architecture.
//
// Usage:
//
//	dwmserved [-addr 127.0.0.1:8080] [-queue 16] [-workers 2]
//	          [-deadline 0] [-max-deadline 0] [-drain 30s]
//	          [-addrfile path] [-events 4096]
//	          [-cache DIR] [-cache-entries 256] [-journal DIR]
//
// The placement cache (on by default, in memory) serves duplicate and
// renumber-equivalent anneal requests without re-running the search;
// -cache DIR persists it across restarts in a checksummed segment log
// under DIR/placecache/ (internal/wal; -cache and -journal may name the
// same DIR) and -cache-entries 0 disables caching entirely.
//
// -journal DIR turns on the write-ahead journal (DESIGN.md §15): every
// accepted job, checkpoint, terminal result, and stream batch is
// committed to a checksummed segment log under DIR before the client
// sees a success, and on startup the daemon replays the journal —
// finished jobs come back as stored, unfinished ones are re-run from
// their requests (results are pure functions of requests, so the
// recovered placements are byte-identical to an uninterrupted run),
// and streams are rebuilt by re-applying their journaled batches.
//
// Besides one-shot jobs (POST /v1/place), the daemon serves streaming
// sessions (DESIGN.md §13): POST /v1/streams creates a live placement
// session from an item count and seed, POST /v1/streams/{id}/append
// feeds it accesses and returns the updated status, GET reads it, and
// DELETE returns the final status and frees the slot. The status after
// N appended accesses is a pure function of (seed, the concatenated
// accesses) regardless of how appends were chunked.
//
// The daemon runs until SIGINT or SIGTERM, then shuts down gracefully:
// readiness flips to 503 immediately, accepted jobs drain to completion
// (bounded by -drain), and only then does the listener close. With
// -addrfile the bound address is written to the given file once the
// listener is up, so scripts can use -addr 127.0.0.1:0 and discover the
// kernel-chosen port.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/placecache"
	"repro/internal/serve"
	"repro/internal/wal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dwmserved:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until ctx is cancelled (the signal
// handler in main) and the subsequent graceful drain completes.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dwmserved", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	addrFile := fs.String("addrfile", "", "write the bound address to this file once listening")
	queueCap := fs.Int("queue", 0, "job queue capacity (0 = default 16)")
	workers := fs.Int("workers", 0, "worker pool size (0 = default 2)")
	deadline := fs.Duration("deadline", 0, "default per-job execution deadline (0 = unlimited)")
	maxDeadline := fs.Duration("max-deadline", 0, "cap on per-request deadlines (0 = uncapped)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	events := fs.Int("events", 4096, "span ring capacity for GET /debug/events (0 = tracing off)")
	cacheDir := fs.String("cache", "", "persist the placement cache under this directory (empty = memory only)")
	cacheEntries := fs.Int("cache-entries", 256, "placement cache capacity (0 = caching disabled)")
	journalDir := fs.String("journal", "", "write-ahead journal directory (empty = no durability)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cache *placecache.Cache
	if *cacheEntries > 0 {
		c, err := placecache.New(placecache.Options{MaxEntries: *cacheEntries, Dir: *cacheDir})
		if err != nil {
			return err
		}
		cache = c
		defer cache.Close()
		if *cacheDir != "" {
			fmt.Fprintf(out, "dwmserved: placement cache in %s (%d entries loaded)\n",
				*cacheDir, cache.Len())
		}
	}

	var jl *wal.Log
	if *journalDir != "" {
		var err error
		jl, err = wal.Open(wal.Options{Dir: *journalDir, MetricsPrefix: "serve.wal"})
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		defer jl.Close()
	}

	srv, err := serve.New(serve.Options{
		QueueCap:        *queueCap,
		Workers:         *workers,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		EventBuffer:     *events,
		Cache:           cache,
		DisableCache:    *cacheEntries <= 0,
		Journal:         jl,
	})
	if err != nil {
		return fmt.Errorf("recover journal: %w", err)
	}
	if jl != nil {
		st := jl.Stats()
		fmt.Fprintf(out, "dwmserved: journal at %s (%d records replayed, %d segments)\n",
			*journalDir, st.Replayed, st.Segments)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "dwmserved: listening on %s\n", ln.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}

	serveErr := make(chan error, 1)
	//dwmlint:ignore barego the accept loop must run beside the signal wait; its only output is the error funneled through serveErr, collected below before return
	//dwmlint:ignore ctxflow Serve exits via srv.Shutdown when ctx fires (the select below); handing it the signal ctx directly would abort in-flight requests
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// Listener failed before any shutdown signal.
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "dwmserved: shutdown signal received, draining")
	//dwmlint:ignore ctxflow the drain deadline must outlive the already-cancelled signal ctx — deriving it from ctx would make Shutdown return immediately
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil {
		return err
	}
	fmt.Fprintln(out, "dwmserved: drained, bye")
	return nil
}
