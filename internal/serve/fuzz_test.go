package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

// recordTap is a wal.FS that counts the records of the given types
// written through it. The log writes each record as one frame in one
// Write, so the count moves exactly when such a record is appended,
// whatever ID it carries, and reading it costs nothing however long the
// journal has grown.
type recordTap struct {
	wal.FS
	types []string
	n     atomic.Int64
}

func (t *recordTap) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tapFile{f, t}, nil
}

type tapFile struct {
	wal.File
	tap *recordTap
}

// Write passes the frame on and, once it is written whole, decodes the
// type of the record after the frame's 8-byte length and CRC header.
func (f tapFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if err == nil && n == len(p) && len(p) > 8 {
		var rec struct {
			T string `json:"t"`
		}
		if json.Unmarshal(p[8:], &rec) == nil && slices.Contains(f.tap.types, rec.T) {
			f.tap.n.Add(1)
		}
	}
	return n, err
}

// openTapped opens a SyncNever journal in dir whose writes pass through
// tap, and a server on it. stop shuts both down; cleanup calls it too.
func openTapped(tb testing.TB, dir string, tap *recordTap, opts Options) (s *Server, stop func()) {
	tb.Helper()
	jl, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever, FS: tap})
	if err != nil {
		tb.Fatal(err)
	}
	opts.Journal = jl
	s, err = New(opts)
	if err != nil {
		jl.Close()
		tb.Fatal(err)
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
			jl.Close()
		})
	}
	tb.Cleanup(stop)
	return s, stop
}

// serveBody answers one request with s's handler.
func serveBody(s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
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

	// Workers append job.done and job.ckpt concurrently, so the tap
	// counts only the records admission writes.
	tap := &recordTap{FS: wal.OS(), types: []string{recJobAccept, recJobHit}}
	s, _ := openTapped(f, f.TempDir(), tap, Options{Workers: 1, QueueCap: 4, MaxDeadline: 50 * time.Millisecond})
	jobCount := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.jobs)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		jobs0, recs0 := jobCount(), tap.n.Load()
		rec := serveBody(s, http.MethodPost, "/v1/place", body)
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

// FuzzHandleStreamAppend feeds arbitrary bodies to POST
// /v1/streams/{id}/append on one journaled stream. Every body must be
// answered 2xx or 4xx without a panic. A 4xx leaves the stream's status
// byte-identical and the journal without a new stream.append record,
// whether the body did not decode or held an access outside the
// stream's items. A 200 advances the stream's accesses by exactly the
// batch's length and journals one record for a non-empty batch, none
// for an empty one.
func FuzzHandleStreamAppend(f *testing.F) {
	for _, seed := range []string{
		"not json",
		`{"accesses":[8]}`,
		`{"accesses":[-1,2]}`,
		`{"accesses":[]}`,
		`{"accesses":[99999999999999999999]}`,
		`{"accesses":[1,2,3,1,0,7]}`,
	} {
		f.Add([]byte(seed))
	}

	tap := &recordTap{FS: wal.OS(), types: []string{recStreamAppend}}
	s, _ := openTapped(f, f.TempDir(), tap, Options{Workers: 1})
	create, err := json.Marshal(StreamRequest{Name: "fuzz", Items: 8, Seed: 1, RoundEvery: 4, RoundIterations: 16})
	if err != nil {
		f.Fatal(err)
	}
	rec := serveBody(s, http.MethodPost, "/v1/streams", create)
	var st StreamStatus
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		f.Fatalf("create stream: %d %s", rec.Code, rec.Body)
	}
	status := func(t *testing.T) ([]byte, StreamStatus) {
		rec := serveBody(s, http.MethodGet, "/v1/streams/"+st.ID, nil)
		var got StreamStatus
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &got) != nil {
			t.Fatalf("get stream: %d %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes(), got
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		raw0, st0 := status(t)
		recs0 := tap.n.Load()
		rec := serveBody(s, http.MethodPost, "/v1/streams/"+st.ID+"/append", body)
		// The handler decodes the first JSON value of the body, as here.
		var req StreamAppendRequest
		decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil
		raw1, st1 := status(t)
		switch {
		case rec.Code == http.StatusOK:
			if st1.Accesses != st0.Accesses+int64(len(req.Accesses)) {
				t.Fatalf("200 moved accesses %d -> %d for a batch of %d", st0.Accesses, st1.Accesses, len(req.Accesses))
			}
			if want := int64(min(len(req.Accesses), 1)); tap.n.Load()-recs0 != want {
				t.Fatalf("200 for a batch of %d added %d stream.append records, want %d",
					len(req.Accesses), tap.n.Load()-recs0, want)
			}
		case rec.Code >= 400 && rec.Code < 500:
			if !bytes.Equal(raw0, raw1) {
				t.Fatalf("%d answer changed the stream:\n pre: %s\npost: %s", rec.Code, raw0, raw1)
			}
			if recs := tap.n.Load(); recs != recs0 {
				t.Fatalf("%d answer (decoded: %v) added %d stream.append records", rec.Code, decoded, recs-recs0)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}
