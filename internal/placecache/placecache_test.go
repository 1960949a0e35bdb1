package placecache

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/trace"
)

func testKey(i int) Key {
	return Key{
		FP:     graph.Fingerprint{uint64(i), uint64(i) * 31},
		Policy: "core.anneal",
		Device: "linear",
		Seed:   int64(i),
	}
}

func testEntry(n int, profile uint64) Entry {
	pl := make([]int, n)
	for i := range pl {
		pl[i] = n - 1 - i
	}
	return Entry{Placement: pl, Cost: int64(n) * 10, Profile: profile}
}

func TestLRUEvictionAndBump(t *testing.T) {
	c := NewMemory(3)
	for i := 0; i < 3; i++ {
		c.Put(testKey(i), testEntry(4, uint64(i)))
	}
	// Bump key 0, then insert key 3: key 1 (now oldest) must go.
	if _, ok := c.Get(testKey(0)); !ok {
		t.Fatal("key 0 missing before eviction")
	}
	c.Put(testKey(3), testEntry(4, 3))
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("key 1 survived eviction despite being LRU")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.Get(testKey(i)); !ok {
			t.Fatalf("key %d evicted unexpectedly", i)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", c.Len())
	}
}

func TestPutFirstWins(t *testing.T) {
	c := NewMemory(4)
	c.Put(testKey(1), testEntry(4, 7))
	second := testEntry(4, 7)
	second.Cost = 999
	c.Put(testKey(1), second)
	e, _ := c.Get(testKey(1))
	if e.Cost != 40 {
		t.Fatalf("second Put overwrote the first: cost %d", e.Cost)
	}
}

func TestNearestMatchesProfileAndSize(t *testing.T) {
	c := NewMemory(8)
	c.Put(testKey(1), testEntry(4, 7))
	c.Put(testKey(2), testEntry(6, 7)) // same profile, wrong size
	c.Put(testKey(3), testEntry(4, 9))
	if _, e, ok := c.Nearest(7, 4); !ok || len(e.Placement) != 4 {
		t.Fatal("Nearest missed the matching (profile, size) entry")
	}
	if _, _, ok := c.Nearest(7, 5); ok {
		t.Fatal("Nearest matched a size that is not cached")
	}
	if _, _, ok := c.Nearest(8, 4); ok {
		t.Fatal("Nearest matched a profile that is not cached")
	}
	// Eviction prunes the profile index.
	small := NewMemory(1)
	small.Put(testKey(1), testEntry(4, 7))
	small.Put(testKey(2), testEntry(4, 8))
	if _, _, ok := small.Nearest(7, 4); ok {
		t.Fatal("Nearest returned an evicted entry")
	}
}

func TestCanonizeDecanonizeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(30)
		labeling := make([]int32, n)
		for i, v := range rng.Perm(n) {
			labeling[i] = int32(v)
		}
		p := layout.Placement(rng.Perm(n))
		got := Decanonize(Canonize(p, labeling), labeling)
		for i := range p {
			if got[i] != p[i] {
				t.Fatalf("trial %d: roundtrip mismatch at %d: %d vs %d", trial, i, got[i], p[i])
			}
		}
	}
}

func TestPersistenceRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := New(Options{MaxEntries: 8, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]Entry{}
	for i := 0; i < 3; i++ {
		e := testEntry(4+i, uint64(i))
		c.Put(testKey(i), e)
		want[i] = e
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := New(Options{MaxEntries: 8, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 3 {
		t.Fatalf("reloaded %d entries, want 3", re.Len())
	}
	for i, w := range want {
		e, ok := re.Get(testKey(i))
		if !ok {
			t.Fatalf("key %d lost across reload", i)
		}
		if e.Cost != w.Cost || e.Profile != w.Profile || len(e.Placement) != len(w.Placement) {
			t.Fatalf("key %d corrupted across reload: %+v vs %+v", i, e, w)
		}
		for j := range e.Placement {
			if e.Placement[j] != w.Placement[j] {
				t.Fatalf("key %d placement diverged at %d", i, j)
			}
		}
	}
}

func TestPersistenceSkipsCorruptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := New(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(testKey(1), testEntry(4, 7))
	c.Put(testKey(2), testEntry(5, 8))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("log has %d lines, want 2", len(lines))
	}
	// Corrupt line 2's checksum, add garbage and a truncated line.
	lines[1] = strings.Replace(lines[1], `"sum":"`, `"sum":"0`, 1)
	lines = append(lines, "not json at all", lines[0][:len(lines[0])/2])
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := New(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("reloaded %d entries, want 1 (corrupt lines skipped)", re.Len())
	}
	if _, ok := re.Get(testKey(1)); !ok {
		t.Fatal("the intact record was not loaded")
	}
}

// TestPersistenceTornTailTruncateAndContinue is the crash-recovery
// regression: a record torn mid-line (no trailing newline — what a
// crash mid-append leaves) must be truncated away, and the NEXT record
// appended must survive the following reload. Before truncation was
// added, the new line was glued onto the torn fragment at the physical
// end of the file, corrupting both.
func TestPersistenceTornTailTruncateAndContinue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := New(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(testKey(1), testEntry(4, 7))
	c.Put(testKey(2), testEntry(5, 8))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: cut the file in the middle of record 2's line.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstLineEnd := strings.IndexByte(string(raw), '\n') + 1
	cut := firstLineEnd + (len(raw)-firstLineEnd)/2
	if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := New(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 {
		t.Fatalf("reloaded %d entries after torn tail, want 1", re.Len())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(firstLineEnd) {
		t.Fatalf("torn tail not truncated: size %d, want %d", fi.Size(), firstLineEnd)
	}
	// The regression proper: continue appending after recovery, then
	// reload once more — both the surviving and the new record must load.
	re.Put(testKey(3), testEntry(6, 9))
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := New(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Len() != 2 {
		t.Fatalf("reloaded %d entries after post-recovery append, want 2", re2.Len())
	}
	if _, ok := re2.Get(testKey(3)); !ok {
		t.Fatal("the record appended after torn-tail recovery was lost")
	}
}

func buildGraph(t *testing.T, seed int64, items, length int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New("placecache-test", items)
	for i := 0; i < length; i++ {
		tr.Read(rng.Intn(items))
	}
	g, err := graph.FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestForAnnealHitIsByteIdenticalToCold(t *testing.T) {
	g := buildGraph(t, 21, 24, 3000)
	start := layout.Identity(24)
	opts := core.AnnealOptions{Seed: 5, Iterations: 4000}

	cold, coldCost, err := core.Anneal(g, start, opts)
	if err != nil {
		t.Fatal(err)
	}

	c := NewMemory(8)
	withCache := opts
	withCache.Cache = c.ForAnneal("linear")
	miss, missCost, err := core.Anneal(g, start, withCache)
	if err != nil {
		t.Fatal(err)
	}
	hit, hitCost, err := core.Anneal(g, start, withCache)
	if err != nil {
		t.Fatal(err)
	}
	if missCost != coldCost || hitCost != coldCost {
		t.Fatalf("costs diverged: cold %d, miss %d, hit %d", coldCost, missCost, hitCost)
	}
	for i := range cold {
		if miss[i] != cold[i] || hit[i] != cold[i] {
			t.Fatalf("placement diverged at %d: cold %d, miss %d, hit %d",
				i, cold[i], miss[i], hit[i])
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
}

func TestForAnnealKeySensitivity(t *testing.T) {
	g := buildGraph(t, 22, 16, 1500)
	start := layout.Identity(16)
	c := NewMemory(16)
	cache := c.ForAnneal("linear")
	base := core.AnnealOptions{Seed: 1, Iterations: 1000, Cache: cache}
	if _, _, err := core.Anneal(g, start, base); err != nil {
		t.Fatal(err)
	}
	// Different seed, iterations, start, and device must all miss.
	for name, opts := range map[string]core.AnnealOptions{
		"seed":       {Seed: 2, Iterations: 1000, Cache: cache},
		"iterations": {Seed: 1, Iterations: 2000, Cache: cache},
	} {
		before := c.Len()
		if _, _, err := core.Anneal(g, start, opts); err != nil {
			t.Fatal(err)
		}
		if c.Len() != before+1 {
			t.Fatalf("%s change did not produce a fresh entry", name)
		}
	}
	otherStart := make(layout.Placement, 16)
	for i := range otherStart {
		otherStart[i] = 15 - i
	}
	before := c.Len()
	if _, _, err := core.Anneal(g, otherStart, base); err != nil {
		t.Fatal(err)
	}
	if c.Len() != before+1 {
		t.Fatal("start-placement change did not produce a fresh entry")
	}
	otherDevice := core.AnnealOptions{Seed: 1, Iterations: 1000, Cache: c.ForAnneal("other")}
	before = c.Len()
	if _, _, err := core.Anneal(g, start, otherDevice); err != nil {
		t.Fatal(err)
	}
	if c.Len() != before+1 {
		t.Fatal("device change did not produce a fresh entry")
	}
}
