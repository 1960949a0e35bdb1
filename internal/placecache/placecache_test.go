package placecache

import (
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/wal"
)

func testKey(i int) Key {
	return Key{
		FP:     graph.Fingerprint{uint64(i), uint64(i) * 31},
		Policy: "core.anneal",
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

// segPath is the cache's first (and, in these tests, only) log segment.
func segPath(dir string) string {
	return filepath.Join(dir, "placecache", "wal-00000001.seg")
}

// recordEnds returns the byte offset just past each framed record in a
// segment: [4-byte length][4-byte CRC][payload], per internal/wal.
func recordEnds(t *testing.T, raw []byte) []int {
	t.Helper()
	var ends []int
	for off := 0; off < len(raw); {
		off += 8 + int(binary.LittleEndian.Uint32(raw[off:off+4]))
		if off > len(raw) {
			t.Fatalf("segment ends inside a record (%d > %d bytes)", off, len(raw))
		}
		ends = append(ends, off)
	}
	return ends
}

// putAndClose stores testEntry records under keys ks in a cache on dir.
func putAndClose(t *testing.T, dir string, ks ...int) {
	t.Helper()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range ks {
		c.Put(testKey(i), testEntry(4+i, uint64(i)))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// reopen loads the cache on dir and checks it holds exactly keys ks.
func reopen(t *testing.T, dir string, ks ...int) *Cache {
	t.Helper()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != len(ks) {
		t.Fatalf("reloaded %d entries, want %d (keys %v)", c.Len(), len(ks), ks)
	}
	for _, i := range ks {
		if _, ok := c.Get(testKey(i)); !ok {
			t.Fatalf("key %d missing after reload", i)
		}
	}
	return c
}

func TestPersistenceRoundtrip(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{MaxEntries: 8, Dir: dir})
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

	re, err := New(Options{MaxEntries: 8, Dir: dir})
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

// TestPersistenceSkipsCorruptLines pins what a flipped byte costs: the
// cache keeps the longest valid prefix of the log and loses every
// record from the damaged one to the end of its segment, which the wal
// copies to a .quarantine file. Losing entries is allowed; serving the
// damaged one, or a record after it, is not. Appends continue after the
// prefix and survive the next reload.
func TestPersistenceSkipsCorruptLines(t *testing.T) {
	dir := t.TempDir()
	putAndClose(t, dir, 1, 2, 3)

	raw, err := os.ReadFile(segPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	ends := recordEnds(t, raw)
	if len(ends) != 3 {
		t.Fatalf("log holds %d records, want 3", len(ends))
	}
	raw[ends[0]+8+5] ^= 0x20 // a payload byte of record 2
	if err := os.WriteFile(segPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re := reopen(t, dir, 1)
	if _, err := os.Stat(segPath(dir) + ".quarantine"); err != nil {
		t.Fatalf("damaged records not quarantined: %v", err)
	}
	if fi, err := os.Stat(segPath(dir)); err != nil || fi.Size() != int64(ends[0]) {
		t.Fatalf("segment not cut to its valid prefix: %v, want %d bytes", fi, ends[0])
	}
	re.Put(testKey(4), testEntry(8, 4))
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	reopen(t, dir, 1, 4).Close()
}

// TestPersistenceTornTailTruncateAndContinue is the crash-recovery
// regression: a record torn mid-write (what a crash mid-append leaves)
// must be truncated away, and the NEXT record appended must survive the
// following reload rather than be glued onto the torn fragment.
func TestPersistenceTornTailTruncateAndContinue(t *testing.T) {
	dir := t.TempDir()
	putAndClose(t, dir, 1, 2)

	raw, err := os.ReadFile(segPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	ends := recordEnds(t, raw)
	cut := ends[0] + (ends[1]-ends[0])/2
	if err := os.WriteFile(segPath(dir), raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	re := reopen(t, dir, 1)
	if fi, err := os.Stat(segPath(dir)); err != nil || fi.Size() != int64(ends[0]) {
		t.Fatalf("torn tail not truncated: %v, want %d bytes", fi, ends[0])
	}
	re.Put(testKey(3), testEntry(6, 9))
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	reopen(t, dir, 1, 3).Close()
}

// TestPersistenceSkipsInvalidRecords feeds the loader records that pass
// the wal's CRC but not the cache's own checks: the log is input from
// outside the program, so a record that is not JSON, names a malformed
// fingerprint or stores a non-permutation is skipped and counted, and
// the valid records around it still load.
func TestPersistenceSkipsInvalidRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "placecache"), Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	good := func(i int) []byte {
		raw, err := json.Marshal(record{FP: testKey(i).FP.String(), Policy: "core.anneal",
			Seed: int64(i), Placement: []int{2, 0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, payload := range [][]byte{
		good(1),
		[]byte("not json"),
		[]byte(`{"fp":"xyz","placement":[0,1]}`),
		[]byte(`{"fp":"` + testKey(5).FP.String() + `","placement":[0,0,1]}`),
		good(2),
	} {
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	skipped := obsPersistSkipped.Value()
	re := reopen(t, dir, 1, 2)
	defer re.Close()
	if got := obsPersistSkipped.Value() - skipped; got != 3 {
		t.Fatalf("placecache.persist.skipped rose by %d, want 3", got)
	}
}

// TestPersistenceLoadsDeviceRecord: a log written while keys still
// carried a device descriptor, always "linear", loads and is hit under
// the device-free key; the extra JSON key is ignored.
func TestPersistenceLoadsDeviceRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "placecache"), Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	payload := `{"fp":"` + testKey(3).FP.String() + `","policy":"core.anneal","device":"linear",` +
		`"seed":3,"iterations":0,"restarts":0,"aux":0,"profile":9,"cost":30,"placement":[2,0,1]}`
	if err := l.Append([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	c := reopen(t, dir, 3)
	defer c.Close()
	e, _ := c.Get(testKey(3))
	if e.Cost != 30 || e.Profile != 9 || len(e.Placement) != 3 || e.Placement[0] != 2 {
		t.Fatalf("loaded entry %+v, want cost 30, profile 9, placement [2 0 1]", e)
	}
}

// TestPersistenceLoadsAnnealAdapterRecord: logs written by earlier
// versions hold "core.anneal" records keyed on an extra "aux" hash of the
// anneal's start placement and schedule, next to the service's own
// "serve.anneal" records. Both still load and count as loaded; the aux key
// is ignored, and a core.anneal record never answers a service lookup for
// the same graph, while the old service record still hits.
func TestPersistenceLoadsAnnealAdapterRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "placecache"), Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range []string{
		`{"fp":"` + testKey(3).FP.String() + `","policy":"core.anneal","seed":3,"iterations":0,` +
			`"restarts":0,"aux":11400714819323198485,"profile":9,"cost":30,"placement":[2,0,1]}`,
		`{"fp":"` + testKey(4).FP.String() + `","policy":"serve.anneal","seed":4,"iterations":0,` +
			`"restarts":0,"aux":0,"profile":9,"cost":40,"placement":[1,2,0]}`,
	} {
		if err := l.Append([]byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	loaded := obsPersistLoaded.Value()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := obsPersistLoaded.Value() - loaded; got != 2 || c.Len() != 2 {
		t.Fatalf("placecache.persist.loaded rose by %d with %d entries, want 2 and 2", got, c.Len())
	}
	serveKey := func(i int) Key {
		k := testKey(i)
		k.Policy = "serve.anneal"
		return k
	}
	if e, ok := c.Get(serveKey(3)); ok {
		t.Fatalf("core.anneal record answered a serve.anneal lookup: %+v", e)
	}
	if e, ok := c.Get(testKey(3)); !ok || e.Cost != 30 {
		t.Fatalf("core.anneal record not loaded under its own key: %+v, %v", e, ok)
	}
	if e, ok := c.Get(serveKey(4)); !ok || e.Cost != 40 || e.Placement[0] != 1 {
		t.Fatalf("old serve.anneal record does not hit: %+v, %v", e, ok)
	}
}
