// Command promlint checks Prometheus text exposition (version 0.0.4)
// for the conformance violations internal/obs.LintExpositionOpts detects:
// malformed metric names, series without TYPE lines, duplicate TYPE or
// series lines, broken label syntax, malformed exemplar annotations, and
// incomplete or non-cumulative histograms (missing +Inf, decreasing
// buckets, _count/_sum mismatch) — per labeled series.
//
// Usage:
//
//	promlint [-max-series N] [FILE...]
//
// With no file arguments it reads stdin, so it composes with curl:
//
//	curl -fsS http://127.0.0.1:8080/metrics | promlint -max-series 64
//
// -max-series N (0 disables) additionally fails any metric family whose
// distinct label combinations exceed N — the scrape-side guard against
// unbounded label cardinality (DESIGN.md §16). The in-process bound
// (obs vecs collapse overflow into the "_other" series) keeps memory
// flat; this flag catches families that bypass it.
//
// Exit status is 0 when every input is clean, 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

func main() {
	maxSeries := flag.Int("max-series", 0,
		"fail metric families with more than this many labeled series (0 disables)")
	flag.Parse()
	opts := obs.LintOptions{MaxSeriesPerMetric: *maxSeries}
	if flag.NArg() == 0 {
		if err := lint("<stdin>", os.Stdin, opts); err != nil {
			fmt.Fprintln(os.Stderr, "promlint:", err)
			os.Exit(1)
		}
		return
	}
	failed := false
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "promlint:", err)
			failed = true
			continue
		}
		err = lint(path, f, opts)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "promlint:", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func lint(name string, r io.Reader, opts obs.LintOptions) error {
	if err := obs.LintExpositionOpts(r, opts); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}
