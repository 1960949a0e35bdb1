package serve

// This file is the pure half of the streaming surface: request/response
// types and the session bookkeeping behind POST /v1/streams. Like job.go
// it is clock-free and goroutine-free — the HTTP handlers, timing, and
// locking around the registry live in server.go.
//
// A stream wraps a core.Session: the client creates it once with an item
// count and seed, then feeds accesses in as many appends as it likes.
// The determinism contract mirrors the batch path's: the placement (and
// cost, and migration count) after N appended accesses is a pure function
// of (effective seed, the concatenated accesses) — chunking cannot show
// through, because the session ingests deltas commutatively and runs its
// improvement rounds at fixed access-count boundaries. The effective seed
// is derived from (request seed, stream name, item count) with
// stats.DeriveNamedSeed, the same scheme the job path uses, so stream results
// are decorrelated from batch jobs sharing a user seed.

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stats"
)

// maxItems bounds the item space a stream or a trace upload may
// declare. The hard ceiling is graph.MaxVertices (the CSR vertex limit),
// but an item count is a bare number in a tiny request body — a trace's
// "items" header no less than a stream's field — and nothing else limits
// the allocation it implies, so the service caps it far below the point
// where the graph's rows or the identity placement alone would be
// gigabytes. It bounds memory, not time: graph.Canon is quadratic in the
// number of WL-equivalent vertices that have edges (the leaves of a
// star, say). Items a trace declares without touching them are exempt,
// so that cost grows with the accesses a request sends, not with its
// item count.
const maxItems = 1 << 22

// StreamRequest is the body of POST /v1/streams.
type StreamRequest struct {
	// Name labels the stream and feeds the effective-seed derivation;
	// empty selects the assigned stream ID.
	Name string `json:"name,omitempty"`
	// Items is the item-space size; every appended access must fall in
	// [0, Items).
	Items int `json:"items"`
	// Seed drives the session's improvement rounds (see core.SessionOptions).
	Seed int64 `json:"seed,omitempty"`
	// RoundEvery and RoundIterations tune the improvement cadence and
	// budget; zero selects the session defaults.
	RoundEvery      int `json:"round_every,omitempty"`
	RoundIterations int `json:"round_iterations,omitempty"`
	// Restarts runs that many concurrent chains per round.
	Restarts int `json:"restarts,omitempty"`
}

// StreamAppendRequest is the body of POST /v1/streams/{id}/append.
type StreamAppendRequest struct {
	Accesses []int `json:"accesses"`
}

// StreamStatus is the body of GET /v1/streams/{id} and of every append
// response: the stream's identity plus the session's current snapshot.
type StreamStatus struct {
	ID         string `json:"id"`
	Name       string `json:"name"`
	Items      int    `json:"items"`
	Accesses   int64  `json:"accesses"`
	Rounds     int64  `json:"rounds"`
	Migrations int64  `json:"migrations"`
	// Cost is the Linear objective of Placement over the transition graph
	// of everything appended so far.
	Cost      int64 `json:"cost"`
	Placement []int `json:"placement"`
}

// stream is one live session in the server's registry.
type stream struct {
	id   string
	name string
	sess *core.Session

	// mu serializes journal-append and session-apply as one critical
	// section per batch, so the journal's record order is exactly the
	// order batches reached the session — the invariant that makes
	// replay reproduce the session byte-identically. The session has its
	// own internal synchronization; mu exists only for this ordering.
	mu sync.Mutex
}

// status renders the stream's externally visible state from the session's
// latest published snapshot.
func (st *stream) status() StreamStatus {
	snap := st.sess.Snapshot()
	return StreamStatus{
		ID:         st.id,
		Name:       st.name,
		Items:      snap.Items,
		Accesses:   snap.Accesses,
		Rounds:     snap.Rounds,
		Migrations: snap.Migrations,
		Cost:       snap.Cost,
		Placement:  snap.Placement,
	}
}

// newStream validates a create request and builds the stream and its
// session. id is the server-assigned stream ID; the effective name (used
// for seed derivation) falls back to it when the request has none.
func newStream(id string, req StreamRequest) (*stream, error) {
	if req.Items < 1 {
		return nil, fmt.Errorf("stream needs at least one item, got %d", req.Items)
	}
	if req.Items > maxItems {
		return nil, fmt.Errorf("stream declares %d items; the service supports at most %d", req.Items, maxItems)
	}
	name := req.Name
	if name == "" {
		name = id
	}
	sess, err := core.NewSession(core.SessionOptions{
		Items:           req.Items,
		Seed:            stats.DeriveNamedSeed(req.Seed, "stream/"+name, req.Items),
		RoundEvery:      req.RoundEvery,
		RoundIterations: req.RoundIterations,
		Restarts:        req.Restarts,
	})
	if err != nil {
		// The session rejects only invalid item counts; the CSR limit is
		// unreachable under maxItems but mapped anyway for safety.
		if errors.Is(err, graph.ErrTooManyVertices) {
			return nil, fmt.Errorf("stream declares %d items; the service supports at most %d", req.Items, maxItems)
		}
		return nil, err
	}
	return &stream{id: id, name: name, sess: sess}, nil
}
