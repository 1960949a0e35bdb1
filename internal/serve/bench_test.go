package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/workload"
)

// BenchmarkHandlePlaceHit times POST /v1/place answered as an exact
// cache hit, in process: a SyncAlways journal in a temp dir, a cache
// primed with the 15 suite kernels (seed 1), and each op one renumbered
// variant of a kernel, so every op decodes, builds the graph,
// canonicalizes, hits and journals.
func BenchmarkHandlePlaceHit(b *testing.B) {
	jl, err := wal.Open(wal.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Options{Workers: 1, Journal: jl})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx)
		jl.Close()
	}()
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	body := func(req PlaceRequest) []byte {
		raw, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		return raw
	}

	const variants = 8
	rng := rand.New(rand.NewSource(1))
	var bodies [][]byte
	for _, gen := range workload.Suite() {
		tr := gen.Make(1)
		var js JobStatus
		rec := serve(http.MethodPost, "/v1/place", body(PlaceRequest{Trace: renumbered(tr, rng.Perm(tr.NumItems)), Seed: 1, Iterations: 2000}))
		if json.Unmarshal(rec.Body.Bytes(), &js) != nil || rec.Code != http.StatusAccepted {
			b.Fatalf("prime %s: %d %s", gen.Name, rec.Code, rec.Body)
		}
		rec = serve(http.MethodGet, "/v1/jobs/"+js.ID+"?wait=1m", nil)
		if json.Unmarshal(rec.Body.Bytes(), &js) != nil || js.Status != statusDone {
			b.Fatalf("prime %s: %s", gen.Name, rec.Body)
		}
		for v := 0; v < variants; v++ {
			bodies = append(bodies, body(PlaceRequest{Trace: renumbered(tr, rng.Perm(tr.NumItems)), Seed: 1, Iterations: 2000}))
		}
	}
	hit := []byte(`"cache_hit":true`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := serve(http.MethodPost, "/v1/place", bodies[i%len(bodies)])
		if rec.Code != http.StatusAccepted || !bytes.Contains(rec.Body.Bytes(), hit) {
			b.Fatalf("op %d: %d %s", i, rec.Code, rec.Body)
		}
	}
}
