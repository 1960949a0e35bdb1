package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ISSUE acceptance: parallel execution must be byte-identical to
// sequential. Render the full table text for E2 and E7 under Workers=1
// and Workers=8 and require equality.
func TestRunParallelDeterministic(t *testing.T) {
	exps := []Experiment{
		{"E2", "main comparison", E2MainComparison},
		{"E7", "multi-tape partitioning", E7MultiTape},
	}
	seq, err := RunContext(context.Background(), Config{Seed: 1, Workers: 1}, exps...)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunContext(context.Background(), Config{Seed: 1, Workers: 8}, exps...)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("result count mismatch: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].ID != par[i].ID {
			t.Fatalf("result %d: order changed: %s vs %s", i, seq[i].ID, par[i].ID)
		}
		var ab, bb strings.Builder
		if err := seq[i].Table.Format(&ab); err != nil {
			t.Fatal(err)
		}
		if err := par[i].Table.Format(&bb); err != nil {
			t.Fatal(err)
		}
		a, b := ab.String(), bb.String()
		if a != b {
			t.Errorf("%s: Workers=1 and Workers=8 tables differ:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				seq[i].ID, a, b)
		}
	}
}

func TestParMapOrderAndErrors(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		got, err := parMap(workers, 10, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}

	// The lowest-indexed failure must win regardless of scheduling.
	boom3 := errors.New("boom 3")
	_, err := parMap(8, 10, func(i int) (int, error) {
		if i >= 3 {
			return 0, fmt.Errorf("boom %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != boom3.Error() {
		t.Fatalf("want lowest-index error %q, got %v", boom3, err)
	}

	if got, err := parMap(4, 0, func(i int) (int, error) { return 0, nil }); err != nil || len(got) != 0 {
		t.Fatalf("empty job list: got %v, %v", got, err)
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := map[int64]bool{}
	for row := 0; row < 100; row++ {
		s := DeriveSeed(1, "E2", row)
		if seen[s] {
			t.Fatalf("seed collision at row %d", row)
		}
		seen[s] = true
	}
	if DeriveSeed(1, "E2", 5) != DeriveSeed(1, "E2", 5) {
		t.Error("DeriveSeed not stable")
	}
	if DeriveSeed(1, "E2", 5) == DeriveSeed(1, "E7", 5) {
		t.Error("DeriveSeed ignores the experiment ID")
	}
	if DeriveSeed(1, "E2", 5) == DeriveSeed(2, "E2", 5) {
		t.Error("DeriveSeed ignores the base seed")
	}
}

// tinyExp returns an experiment that records it ran and emits a
// one-row table.
func tinyExp(id string, ran *atomic.Int32) Experiment {
	return Experiment{ID: id, Name: "tiny " + id, Run: func(cfg Config) (*Table, error) {
		if ran != nil {
			ran.Add(1)
		}
		return &Table{ID: id, Title: "tiny", Headers: []string{"v"}, Rows: [][]string{{"1"}}}, nil
	}}
}

// ISSUE acceptance: a panic injected into one experiment fails only
// that experiment — RunContext returns the other experiments' tables
// and a deterministic lowest-index error.
func TestRunContextPanicIsolation(t *testing.T) {
	exps := []Experiment{
		tinyExp("T1", nil),
		{ID: "T2", Name: "bomb", Run: func(cfg Config) (*Table, error) { panic("injected") }},
		tinyExp("T3", nil),
	}
	for _, workers := range []int{1, 4} {
		results, err := RunContext(context.Background(), Config{Seed: 1, Workers: workers}, exps...)
		if err == nil || !strings.Contains(err.Error(), "T2") || !strings.Contains(err.Error(), "injected") {
			t.Fatalf("workers=%d: want T2 panic error, got %v", workers, err)
		}
		if len(results) != 3 {
			t.Fatalf("workers=%d: %d results, want 3", workers, len(results))
		}
		if results[0].Table == nil || results[0].Err != nil {
			t.Errorf("workers=%d: T1 lost: %+v", workers, results[0])
		}
		if results[2].Table == nil || results[2].Err != nil {
			t.Errorf("workers=%d: T3 lost: %+v", workers, results[2])
		}
		if results[1].Table != nil || results[1].Err == nil {
			t.Errorf("workers=%d: T2 must fail with a nil table: %+v", workers, results[1])
		}
	}
}

// The lowest-indexed failure wins even when a later experiment fails
// first in wall-clock order.
func TestRunContextLowestIndexError(t *testing.T) {
	slow := Experiment{ID: "T1", Name: "slow fail", Run: func(cfg Config) (*Table, error) {
		time.Sleep(30 * time.Millisecond)
		return nil, errors.New("slow failure")
	}}
	fast := Experiment{ID: "T2", Name: "fast fail", Run: func(cfg Config) (*Table, error) {
		return nil, errors.New("fast failure")
	}}
	_, err := RunContext(context.Background(), Config{Seed: 1, Workers: 4}, slow, fast)
	if err == nil || !strings.Contains(err.Error(), "T1: slow failure") {
		t.Fatalf("want the lowest-index (T1) error, got %v", err)
	}
}

func TestRunContextTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	exps := []Experiment{
		tinyExp("T1", nil),
		{ID: "T2", Name: "hang", Run: func(cfg Config) (*Table, error) {
			<-release // hangs until the test exits
			return nil, nil
		}},
	}
	cfg := Config{Seed: 1, Workers: 2, Timeout: 20 * time.Millisecond}
	results, err := RunContext(context.Background(), cfg, exps...)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("want timeout error, got %v", err)
	}
	if results[0].Table == nil {
		t.Error("fast sibling lost to the hung experiment's timeout")
	}
	if results[1].Err == nil || results[1].Table != nil {
		t.Errorf("hung experiment must carry the timeout: %+v", results[1])
	}
}

// ISSUE acceptance (-race): cancelling RunContext mid-run shuts down
// cleanly with partial results — completed experiments keep their
// tables, unstarted ones carry the context error, and nothing deadlocks
// or races.
func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	blocker := make(chan struct{})
	defer close(blocker)
	var tail atomic.Int32
	exps := []Experiment{
		tinyExp("T1", nil),
		{ID: "T2", Name: "block", Run: func(cfg Config) (*Table, error) {
			close(started)
			<-blocker
			return &Table{ID: "T2", Headers: []string{"v"}}, nil
		}},
		tinyExp("T3", &tail),
		tinyExp("T4", &tail),
	}
	go func() {
		<-started
		cancel()
	}()
	// Workers=1 forces T2 to block the queue, so the cancel must free
	// T3/T4 without running them.
	results, err := RunContext(ctx, Config{Seed: 1, Workers: 1}, exps...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if results[0].Table == nil || results[0].Err != nil {
		t.Errorf("completed T1 lost: %+v", results[0])
	}
	if !errors.Is(results[1].Err, context.Canceled) {
		t.Errorf("in-flight T2 must be marked canceled: %+v", results[1])
	}
	for i := 2; i < 4; i++ {
		if !errors.Is(results[i].Err, context.Canceled) {
			t.Errorf("unstarted %s must be marked canceled: %+v", results[i].ID, results[i])
		}
	}
	if n := tail.Load(); n != 0 {
		t.Errorf("%d experiments ran after cancellation", n)
	}
}

// Cancellation with a parallel pool: every result is either a completed
// table or a context error; no slot is left zero-valued.
func TestRunContextCancelParallelPool(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the run starts
	exps := make([]Experiment, 6)
	for i := range exps {
		exps[i] = tinyExp(fmt.Sprintf("T%d", i+1), nil)
	}
	results, err := RunContext(ctx, Config{Seed: 1, Workers: 4}, exps...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for i, r := range results {
		if r.ID == "" {
			t.Fatalf("result %d left unfilled: %+v", i, r)
		}
		if r.Table == nil && r.Err == nil {
			t.Fatalf("result %d has neither table nor error: %+v", i, r)
		}
	}
}

// Cancellation mid-run with a parallel pool: once ctx fires, a worker
// that frees up marks every remaining experiment canceled instead of
// starting it.
func TestRunContextCancelParallelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocker := make(chan struct{})
	defer close(blocker)
	var inFlight sync.WaitGroup
	inFlight.Add(2)
	block := func(id string) Experiment {
		return Experiment{ID: id, Name: "block", Run: func(cfg Config) (*Table, error) {
			inFlight.Done()
			<-blocker
			return &Table{ID: id, Headers: []string{"v"}}, nil
		}}
	}
	var tail atomic.Int32
	exps := []Experiment{block("T1"), block("T2")}
	for i := 3; i <= 8; i++ {
		exps = append(exps, tinyExp(fmt.Sprintf("T%d", i), &tail))
	}
	go func() {
		inFlight.Wait()
		cancel()
	}()
	results, err := RunContext(ctx, Config{Seed: 1, Workers: 2}, exps...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("result %d must be marked canceled: %+v", i, r)
		}
	}
	if n := tail.Load(); n != 0 {
		t.Errorf("%d experiments started after cancellation", n)
	}
}

func TestRunParallelIsRunContextWrapper(t *testing.T) {
	var ran atomic.Int32
	results, err := RunContext(context.Background(), Config{Seed: 1, Workers: 2}, tinyExp("T1", &ran), tinyExp("T2", &ran))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || ran.Load() != 2 {
		t.Fatalf("wrapper ran %d/%d experiments", ran.Load(), len(results))
	}
	for _, r := range results {
		if r.Table == nil || r.Elapsed < 0 {
			t.Errorf("bad result %+v", r)
		}
	}
}

func TestConfigWorkersDefault(t *testing.T) {
	if w := (Config{}).workers(); w < 1 {
		t.Fatalf("default workers = %d, want >= 1", w)
	}
	if w := (Config{Workers: 3}).workers(); w != 3 {
		t.Fatalf("explicit workers = %d, want 3", w)
	}
}
