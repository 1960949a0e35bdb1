package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"testing"
)

// createStream posts to /v1/streams and returns (status code, status).
func createStream(t *testing.T, base string, req StreamRequest) (int, StreamStatus) {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/streams", req)
	var st StreamStatus
	if resp.StatusCode == http.StatusCreated {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("bad 201 body %q: %v", body, err)
		}
		if st.ID == "" {
			t.Fatalf("201 with empty stream id: %s", body)
		}
	}
	return resp.StatusCode, st
}

// appendStream posts accesses to a stream and returns (status code, status).
func appendStream(t *testing.T, base, id string, accesses []int) (int, StreamStatus) {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/streams/"+id+"/append", StreamAppendRequest{Accesses: accesses})
	var st StreamStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("bad 200 body %q: %v", body, err)
		}
	}
	return resp.StatusCode, st
}

func getStream(t *testing.T, base, id string) StreamStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/streams/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stream %s: status %d", id, resp.StatusCode)
	}
	var st StreamStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func streamAccessesFor(seed int64, items, n int) []int {
	rng := rand.New(rand.NewSource(seed))
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

// TestStreamChunkInvariance is the HTTP-level determinism contract: the
// stream's placement after N appended accesses is byte-identical whether
// they arrived in one append or in ragged chunks, and matches across two
// servers (no process-local state leaks in).
func TestStreamChunkInvariance(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1})
	spec := StreamRequest{Name: "smoke", Items: 32, Seed: 9, RoundEvery: 200, RoundIterations: 1200}
	accesses := streamAccessesFor(3, spec.Items, 1500)

	code, one := createStream(t, base, spec)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if code, _ := appendStream(t, base, one.ID, accesses); code != http.StatusOK {
		t.Fatalf("one-shot append: status %d", code)
	}
	oneFinal := getStream(t, base, one.ID)

	_, chunked := createStream(t, base, spec)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < len(accesses); {
		k := 1 + rng.Intn(137)
		if i+k > len(accesses) {
			k = len(accesses) - i
		}
		if code, _ := appendStream(t, base, chunked.ID, accesses[i:i+k]); code != http.StatusOK {
			t.Fatalf("chunked append at %d: status %d", i, code)
		}
		i += k
	}
	chunkedFinal := getStream(t, base, chunked.ID)

	// Identity fields differ; everything derived from the accesses must not.
	oneFinal.ID, chunkedFinal.ID = "", ""
	if !reflect.DeepEqual(oneFinal, chunkedFinal) {
		t.Fatalf("chunked stream diverged from one-shot:\n got %+v\nwant %+v", chunkedFinal, oneFinal)
	}
	if oneFinal.Rounds == 0 {
		t.Fatal("stream ran no improvement rounds")
	}
	if oneFinal.Accesses != int64(len(accesses)) {
		t.Fatalf("accesses = %d, want %d", oneFinal.Accesses, len(accesses))
	}
}

// TestStreamValidation covers the 4xx surface of the stream endpoints.
func TestStreamValidation(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1})
	if code, _ := createStream(t, base, StreamRequest{Items: 0}); code != http.StatusBadRequest {
		t.Fatalf("items=0: status %d, want 400", code)
	}
	if code, _ := createStream(t, base, StreamRequest{Items: maxItems + 1}); code != http.StatusBadRequest {
		t.Fatalf("oversized items: status %d, want 400", code)
	}
	code, st := createStream(t, base, StreamRequest{Items: 8, Seed: 1})
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if code, _ := appendStream(t, base, st.ID, []int{3, 8}); code != http.StatusBadRequest {
		t.Fatalf("out-of-range access: status %d, want 400", code)
	}
	if got := getStream(t, base, st.ID).Accesses; got != 0 {
		t.Fatalf("rejected append ingested %d accesses", got)
	}
	if code, _ := appendStream(t, base, "stream-999999", []int{1}); code != http.StatusNotFound {
		t.Fatalf("append to unknown stream: status %d, want 404", code)
	}
	resp, err := http.Get(base + "/v1/streams/stream-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown stream: status %d, want 404", resp.StatusCode)
	}
}

// TestStreamDelete pins close semantics: DELETE returns the final status
// and the stream is gone afterwards.
func TestStreamDelete(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1})
	_, st := createStream(t, base, StreamRequest{Items: 8, Seed: 2})
	if code, _ := appendStream(t, base, st.ID, []int{1, 5, 1, 3}); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/streams/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var final StreamStatus
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || final.Accesses != 4 {
		t.Fatalf("delete: status %d, final %+v", resp.StatusCode, final)
	}
	resp2, err := http.Get(base + "/v1/streams/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after delete: status %d, want 404", resp2.StatusCode)
	}
}

// TestPlaceOversizedTrace pins the oversized-trace bugfix at the HTTP
// boundary: a trace whose header declares an item space at the CSR limit
// or past maxItems must be rejected with 400 at submission, not crash a
// worker into a panic-isolated failed job or have the graph build
// allocate rows for every declared item.
func TestPlaceOversizedTrace(t *testing.T) {
	_, base := startServer(t, Options{Workers: 1})
	for _, items := range []int{1 << 31, maxItems + 1} {
		resp, body := postJSON(t, base+"/v1/place", PlaceRequest{
			Trace: fmt.Sprintf("dwmtrace 1\nname huge\nitems %d\nR 0\nR 1\n", items),
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("trace of %d items: status %d (%s), want 400", items, resp.StatusCode, body)
		}
	}
}
