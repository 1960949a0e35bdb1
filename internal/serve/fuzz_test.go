package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

// jobRecordTap is a wal.FS that counts the job.accept and job.hit
// records written through it: the ones admission writes (workers
// append job.done and job.ckpt concurrently, so a raw record count is
// not stable). The log writes each record as one frame in one Write, so
// the count moves exactly when such a record is appended, whatever job
// ID it carries, and reading it costs nothing however long the journal
// has grown.
type jobRecordTap struct {
	wal.FS
	n atomic.Int64
}

func (t *jobRecordTap) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tapFile{f, t}, nil
}

type tapFile struct {
	wal.File
	tap *jobRecordTap
}

// Write passes the frame on and, once it is written whole, decodes the
// type of the record after the frame's 8-byte length and CRC header.
func (f tapFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if err == nil && n == len(p) && len(p) > 8 {
		var rec struct {
			T string `json:"t"`
		}
		if json.Unmarshal(p[8:], &rec) == nil && (rec.T == recJobAccept || rec.T == recJobHit) {
			f.tap.n.Add(1)
		}
	}
	return n, err
}

// FuzzHandlePlace feeds arbitrary bodies to POST /v1/place. Every body
// must be answered 2xx or 4xx without a panic, and a 4xx must leave the
// registry and the journal as they were: no job, no job record.
func FuzzHandlePlace(f *testing.F) {
	tr := "dwmtrace 1\nname f\nitems 4\nR 0\nW 1\nR 2\nR 3\nR 0\n"
	for _, req := range []PlaceRequest{
		{Trace: tr, Seed: 1, Iterations: 200},
		{Trace: tr, Seed: 1, Iterations: 200, ClientKey: "k"},
		{Trace: tr, Policy: "organpipe"},
		{Trace: tr, Policy: "nope"},
		{Trace: tr, Resume: "job-000001"},
		{Trace: "dwmtrace 1\nitems 2\nR 5\n"},
		{Trace: "dwmtrace 1\nitems 3000000000\nR 0\n"},
		// 40 bytes declaring 10 000 items, two touched: Canon must not
		// individualize the isolated vertices one by one. The key dedupes
		// it onto the job above after planning, so no 10 000-item job runs
		// and journals its large checkpoints.
		{Trace: "dwmtrace 1\nname big\nitems 10000\nR 0\nW 1\n", Seed: 1, Iterations: 200, ClientKey: "k"},
		{},
	} {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"trace": 7}`))
	f.Add([]byte(`{"trace":"dwmtrace 1\nitems 1\nR 0\n","iterations":-5,"restarts":-1,"deadline_ms":-3}`))
	f.Add([]byte("not json"))

	tap := &jobRecordTap{FS: wal.OS()}
	jl, err := wal.Open(wal.Options{Dir: f.TempDir(), Policy: wal.SyncNever, FS: tap})
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Options{Workers: 1, QueueCap: 4, MaxDeadline: 50 * time.Millisecond, Journal: jl})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		jl.Close()
	})
	jobCount := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.jobs)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		jobs0, recs0 := jobCount(), tap.n.Load()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(body)))
		switch {
		case rec.Code >= 200 && rec.Code < 300:
		case rec.Code >= 400 && rec.Code < 500:
			if jobs, recs := jobCount(), tap.n.Load(); jobs != jobs0 || recs != recs0 {
				t.Fatalf("%d answer added %d jobs and %d job records", rec.Code, jobs-jobs0, recs-recs0)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}
