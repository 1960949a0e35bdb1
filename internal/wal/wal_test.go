package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// collect replays a log into a slice of payload copies.
func collect(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var got [][]byte
	if err := l.Replay(func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func mustOpen(t *testing.T, o Options) *Log {
	t.Helper()
	l, err := Open(o)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := [][]byte{[]byte("a"), []byte("bb"), bytes.Repeat([]byte("x"), 1000)}
	l := mustOpen(t, Options{Dir: dir})
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], recs[i])
		}
	}
	if st := l2.Stats(); st.Replayed != int64(len(recs)) {
		t.Errorf("Stats.Replayed = %d, want %d", st.Replayed, len(recs))
	}
}

func TestRotation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	const n = 40
	for i := 0; i < n; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%03d", i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if st := l.Stats(); st.Rotations == 0 {
		t.Fatalf("expected rotations with 64-byte segments, got 0")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(got), n)
	}
	for i, p := range got {
		if want := fmt.Sprintf("record-%03d", i); string(p) != want {
			t.Fatalf("record %d = %q, want %q (order not preserved)", i, p, want)
		}
	}
}

// TestOversizedRecordSpansThreshold: a record larger than SegmentBytes
// still commits (rotation happens between records, never inside one).
func TestOversizedRecordSpansThreshold(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 32})
	big := bytes.Repeat([]byte("z"), 500)
	if err := l.Append([]byte("small")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Append(big); err != nil {
		t.Fatalf("append big: %v", err)
	}
	l.Close()
	l2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 32})
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != 2 || !bytes.Equal(got[1], big) {
		t.Fatalf("oversized record lost: replayed %d records", len(got))
	}
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, e := range names {
		if _, ok := parseSegName(e.Name()); ok {
			last = filepath.Join(dir, e.Name())
		}
	}
	if last == "" {
		t.Fatal("no segment files found")
	}
	return last
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Crash artifact: half a record (a full header promising 100 bytes,
	// then only 10) at the end of the last segment.
	seg := lastSegment(t, dir)
	torn := frame(bytes.Repeat([]byte("t"), 100))[:18]
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn)
	f.Close()
	before, _ := os.Stat(seg)

	l2 := mustOpen(t, Options{Dir: dir})
	got := collect(t, l2)
	if len(got) != 5 {
		t.Fatalf("replayed %d records after torn tail, want 5", len(got))
	}
	if st := l2.Stats(); st.TornTruncations != 1 {
		t.Errorf("TornTruncations = %d, want 1", st.TornTruncations)
	}
	after, _ := os.Stat(seg)
	if after.Size() >= before.Size() {
		t.Errorf("segment not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	// The regression that motivates truncation: appending after recovery
	// must land on a clean record boundary.
	if err := l2.Append([]byte("post-crash")); err != nil {
		t.Fatalf("append after torn-tail recovery: %v", err)
	}
	l2.Close()
	l3 := mustOpen(t, Options{Dir: dir})
	defer l3.Close()
	got = collect(t, l3)
	if len(got) != 6 || string(got[5]) != "post-crash" {
		t.Fatalf("post-recovery append lost: got %d records", len(got))
	}
}

func TestBitFlipQuarantined(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-number-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Flip one payload byte in the middle of the file.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(data) / 2
	data[mid] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	got := collect(t, l2)
	if len(got) == 0 || len(got) >= 5 {
		t.Fatalf("replayed %d records after bit flip, want a proper non-empty prefix", len(got))
	}
	for i, p := range got {
		if want := fmt.Sprintf("record-number-%d", i); string(p) != want {
			t.Fatalf("surviving record %d = %q, want %q", i, p, want)
		}
	}
	if st := l2.Stats(); st.Quarantines != 1 {
		t.Errorf("Quarantines = %d, want 1", st.Quarantines)
	}
	if _, err := os.Stat(seg + ".quarantine"); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
	// The log stays usable after quarantine.
	if err := l2.Append([]byte("alive")); err != nil {
		t.Fatalf("append after quarantine: %v", err)
	}
	l2.Close()
}

// TestCorruptMiddleSegmentKeepsLaterSegments: damage is contained to one
// segment; records in later segments still replay.
func TestCorruptMiddleSegmentKeepsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	const n = 30
	for i := 0; i < n; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Corrupt the first segment entirely (flip a byte in its first
	// record's payload).
	first := filepath.Join(dir, "wal-00000001.seg")
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[9] ^= 0xff
	os.WriteFile(first, data, 0o644)

	l2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	defer l2.Close()
	got := collect(t, l2)
	if len(got) == 0 {
		t.Fatal("no records survived a single-segment corruption")
	}
	// Every surviving record must be intact, and at least one must come
	// from a segment after the corrupt one.
	seen := map[string]bool{}
	for _, p := range got {
		seen[string(p)] = true
	}
	if !seen[fmt.Sprintf("record-%03d", n-1)] {
		t.Errorf("later segments lost: newest record missing from replay")
	}
}

func TestEmptyAndOversizedRecordsRejected(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	defer l.Close()
	if err := l.Append(nil); err == nil {
		t.Error("empty record accepted")
	}
}

// TestRandomizedRoundTrip is the seeded property test: random record
// sizes and contents, random segment thresholds — replay must return
// exactly what was appended, in order, for every seed.
func TestRandomizedRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		segBytes := int64(64 + rng.Intn(4096))
		l := mustOpen(t, Options{Dir: dir, SegmentBytes: segBytes, Policy: SyncNever})
		n := 20 + rng.Intn(200)
		recs := make([][]byte, n)
		for i := range recs {
			recs[i] = make([]byte, 1+rng.Intn(700))
			rng.Read(recs[i])
			if err := l.Append(recs[i]); err != nil {
				t.Fatalf("seed %d: append %d: %v", seed, i, err)
			}
		}
		l.Close()
		l2 := mustOpen(t, Options{Dir: dir, SegmentBytes: segBytes})
		got := collect(t, l2)
		l2.Close()
		if len(got) != n {
			t.Fatalf("seed %d: replayed %d, want %d", seed, len(got), n)
		}
		for i := range recs {
			if !bytes.Equal(got[i], recs[i]) {
				t.Fatalf("seed %d: record %d mismatch", seed, i)
			}
		}
	}
}

// syncFailFS is the real filesystem with every fsync failing.
type syncFailFS struct{ FS }

func (s syncFailFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncFailFile{f}, nil
}

type syncFailFile struct{ File }

func (syncFailFile) Sync() error { return errors.New("injected fsync failure") }

// TestAppendErrorsCountsEveryFailure: <prefix>.append_errors rises by
// exactly one for every Append that returns an error — the fsync that
// breaks the log (on rotation under SyncNever, on the append itself
// under SyncAlways) and every append refused afterwards because the log
// is broken.
func TestAppendErrorsCountsEveryFailure(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy SyncPolicy
		failed int
	}{
		// The first 48-byte frame fits the 64-byte segment; the second
		// rotates, the rotation's fsync fails, and the log is broken.
		{"SyncNever", SyncNever, 9},
		// The first append's own fsync fails.
		{"SyncAlways", SyncAlways, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prefix := "wal_test.append_errors." + tc.name
			errs := obs.GetCounter(prefix + ".append_errors")
			before := errs.Value()
			l := mustOpen(t, Options{Dir: t.TempDir(), SegmentBytes: 64, Policy: tc.policy,
				FS: syncFailFS{OS()}, MetricsPrefix: prefix})
			defer l.Close()
			failed := 0
			for i := 0; i < 10; i++ {
				if err := l.Append(bytes.Repeat([]byte{'r'}, 40)); err != nil {
					failed++
				}
			}
			if failed != tc.failed {
				t.Fatalf("%d appends failed, want %d", failed, tc.failed)
			}
			if got := errs.Value() - before; got != int64(failed) {
				t.Errorf("append_errors rose by %d, want %d (one per failed Append)", got, failed)
			}
		})
	}
}
