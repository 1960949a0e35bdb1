package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/trace"
)

func sessionAccesses(seed int64, items, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	// Zipf-ish skew: a hot prefix plus a uniform tail, so rounds have
	// real structure to chase.
	acc := make([]int, n)
	for i := range acc {
		if rng.Intn(4) > 0 {
			acc[i] = rng.Intn(1 + items/4)
		} else {
			acc[i] = rng.Intn(items)
		}
	}
	return acc
}

func runSession(t *testing.T, opts SessionOptions, accesses []int, chunk func(i int) int) SessionSnapshot {
	t.Helper()
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(accesses); {
		k := chunk(i)
		if k < 1 {
			k = 1
		}
		if i+k > len(accesses) {
			k = len(accesses) - i
		}
		if err := s.Append(context.Background(), accesses[i:i+k]); err != nil {
			t.Fatal(err)
		}
		i += k
	}
	return s.Snapshot()
}

// TestSessionChunkInvariance is the determinism contract of the
// streaming engine: the snapshot after ingesting a fixed access sequence
// is byte-identical whether the sequence arrived one access at a time,
// in ragged chunks, or in a single append.
func TestSessionChunkInvariance(t *testing.T) {
	opts := SessionOptions{Items: 48, Seed: 42, RoundEvery: 256, RoundIterations: 1500}
	accesses := sessionAccesses(1, opts.Items, 2000)
	oneShot := runSession(t, opts, accesses, func(int) int { return len(accesses) })
	single := runSession(t, opts, accesses, func(int) int { return 1 })
	rng := rand.New(rand.NewSource(5))
	ragged := runSession(t, opts, accesses, func(int) int { return 1 + rng.Intn(97) })
	for name, got := range map[string]SessionSnapshot{"single": single, "ragged": ragged} {
		if !reflect.DeepEqual(got, oneShot) {
			t.Fatalf("%s-access chunking diverged from one-shot:\n got %+v\nwant %+v", name, got, oneShot)
		}
	}
	if oneShot.Rounds == 0 {
		t.Fatal("test exercised no improvement rounds")
	}
	if oneShot.Accesses != int64(len(accesses)) {
		t.Fatalf("accesses = %d, want %d", oneShot.Accesses, len(accesses))
	}
}

// TestSessionChunkInvarianceWithRestarts repeats the contract with
// concurrent restart chains per round, where scheduling could leak if the
// winner selection were not deterministic.
func TestSessionChunkInvarianceWithRestarts(t *testing.T) {
	opts := SessionOptions{Items: 32, Seed: 7, RoundEvery: 200, RoundIterations: 1000, Restarts: 3}
	accesses := sessionAccesses(2, opts.Items, 1000)
	oneShot := runSession(t, opts, accesses, func(int) int { return len(accesses) })
	ragged := runSession(t, opts, accesses, func(i int) int { return 1 + i%13 })
	if !reflect.DeepEqual(ragged, oneShot) {
		t.Fatalf("restart session diverged under chunking:\n got %+v\nwant %+v", ragged, oneShot)
	}
}

// TestSessionCostMatchesColdRecompute checks the incremental cost
// bookkeeping end to end: after every Append of a chunked stream, the
// snapshot cost must equal a cold FromTrace + Freeze + LinearCSR
// recompute over exactly the accesses ingested so far — across flushes
// of partial tails and the rounds that replace the placement.
func TestSessionCostMatchesColdRecompute(t *testing.T) {
	opts := SessionOptions{Items: 40, Seed: 3, RoundEvery: 300, RoundIterations: 1200}
	accesses := sessionAccesses(9, opts.Items, 1700) // deliberately not a multiple of RoundEvery
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("session-recompute", opts.Items)
	for i := 0; i < len(accesses); {
		k := min(1+i%7, len(accesses)-i)
		if err := s.Append(context.Background(), accesses[i:i+k]); err != nil {
			t.Fatal(err)
		}
		for _, a := range accesses[i : i+k] {
			tr.Read(a)
		}
		i += k

		snap := s.Snapshot()
		g, err := graph.FromTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := cost.LinearCSR(g.Freeze(), snap.Placement)
		if err != nil {
			t.Fatal(err)
		}
		if cold != snap.Cost {
			t.Fatalf("after %d accesses: snapshot cost %d != cold recompute %d", i, snap.Cost, cold)
		}
	}
	snap := s.Snapshot()
	if snap.Rounds == 0 {
		t.Fatal("test exercised no improvement rounds")
	}
	if err := snap.Placement.Validate(opts.Items); err != nil {
		t.Fatalf("snapshot placement invalid: %v", err)
	}
}

// TestSessionImproves sanity-checks that rounds actually help: after a
// skewed stream, the session placement must beat the identity placement
// it started from.
func TestSessionImproves(t *testing.T) {
	opts := SessionOptions{Items: 64, Seed: 11, RoundEvery: 256, RoundIterations: 4000}
	accesses := sessionAccesses(4, opts.Items, 4096)
	snap := runSession(t, opts, accesses, func(int) int { return 512 })

	tr := trace.New("session-improves", opts.Items)
	for _, a := range accesses {
		tr.Read(a)
	}
	g, err := graph.FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	identity, err := cost.LinearCSR(g.Freeze(), layout.Identity(opts.Items))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cost >= identity {
		t.Fatalf("session cost %d did not improve on identity %d", snap.Cost, identity)
	}
	if snap.Migrations == 0 {
		t.Fatal("improvement without migrations is impossible")
	}
}

// TestSessionValidation covers the construction and ingest error paths.
func TestSessionValidation(t *testing.T) {
	if _, err := NewSession(SessionOptions{Items: 0}); err == nil {
		t.Fatal("items=0 accepted")
	}
	s, err := NewSession(SessionOptions{Items: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(context.Background(), []int{3, 8}); err == nil {
		t.Fatal("out-of-range access accepted")
	}
	if err := s.Append(context.Background(), []int{3, -1}); err == nil {
		t.Fatal("negative access accepted")
	}
	// A rejected batch must not have ingested its valid prefix.
	if got := s.Snapshot().Accesses; got != 0 {
		t.Fatalf("rejected batch ingested %d accesses", got)
	}
	if err := s.Append(context.Background(), []int{3, 5, 3}); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Accesses; got != 3 {
		t.Fatalf("accesses = %d, want 3", got)
	}
}

// TestSessionCancelledRound pins the interruption contract: a cancelled
// context fails Append, but the session still holds a valid placement.
func TestSessionCancelledRound(t *testing.T) {
	opts := SessionOptions{Items: 24, Seed: 5, RoundEvery: 64, RoundIterations: 100000}
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the first round must fail fast
	if err := s.Append(ctx, sessionAccesses(6, opts.Items, 200)); err == nil {
		t.Fatal("append with cancelled context succeeded despite crossing a round boundary")
	}
	snap := s.Snapshot()
	if err := snap.Placement.Validate(opts.Items); err != nil {
		t.Fatalf("snapshot after cancellation invalid: %v", err)
	}
}
