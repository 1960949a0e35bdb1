package main

// This file is the benchmark's only reader of the wall clock and its only
// launcher of goroutines. Everything else (input plans, checks, metric
// arithmetic) stays a pure function of the seed, as the repository's
// determinism lint expects; the timing below never feeds a placement.

import (
	"sync"
	"time"
)

// now reads the wall clock.
//
//dwmlint:ignore walltime the benchmark exists to measure wall-clock latency and throughput; no placement input is derived from it
func now() time.Time { return time.Now() }

// seconds returns the wall time elapsed since t, in seconds.
func seconds(t time.Time) float64 { return now().Sub(t).Seconds() }

// sleepUntil blocks until the wall clock reaches t.
func sleepUntil(t time.Time) {
	if d := t.Sub(now()); d > 0 {
		time.Sleep(d)
	}
}

// group runs functions on their own goroutines; Wait returns once every
// one of them has returned.
type group struct{ wg sync.WaitGroup }

// Go starts fn on a new goroutine.
func (g *group) Go(fn func()) {
	g.wg.Add(1)
	//dwmlint:ignore barego every benchmark goroutine starts here and is joined by Wait before its phase ends; results land in per-request slots, so scheduling changes timings only
	go func() {
		defer g.wg.Done()
		fn()
	}()
}

// Wait blocks until every function started with Go has returned.
func (g *group) Wait() { g.wg.Wait() }
