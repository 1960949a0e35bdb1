package main

// Scenario schema and plan derivation — the pure half of the load
// generator (DESIGN.md §16). A scenario declares WHAT load to offer
// (request counts, a weighted mix of request kinds, tenants, an
// optional rps ramp, an optional SLO budget); BuildPlan expands it into
// a fully materialized request list deterministically, with every
// random-looking choice (mix pick, tenant, per-request seed) drawn from
// a splitmix64 chain over (scenario seed, request index). Two runs of
// the same scenario therefore offer byte-identical requests in the same
// order — the load is reproducible, and because the server's results
// are pure functions of requests, so are the placements it computes
// under load. Only the timing (worker interleaving, rps pacing) varies,
// which is exactly the part a load test is supposed to measure.
//
// Durations are expressed in request counts, not seconds: a scenario
// "ends" when its Requests have all completed, so the plan needs no
// clock. The wall clock enters only in main.go (pacing and latency
// measurement), which is the package's single walltime-allowlisted file.

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Request kinds.
const (
	kindPlace    = "place"
	kindCacheHit = "cache_hit"
	kindStream   = "stream"
)

// Scenario is the declarative input of one dwmload run.
type Scenario struct {
	// Name labels the run and seeds derivations alongside Seed.
	Name string `json:"name"`
	// Seed drives every deterministic choice the plan makes.
	Seed int64 `json:"seed"`
	// Requests is the total number of requests to offer — the scenario's
	// duration, expressed clock-free.
	Requests int `json:"requests"`
	// Concurrency is the number of client workers; 0 selects 4.
	Concurrency int `json:"concurrency,omitempty"`
	// Tenants are the tenant labels stamped round-robin onto requests
	// (PlaceRequest.Tenant); empty selects a single "default" tenant.
	Tenants []string `json:"tenants,omitempty"`
	// Mix is the weighted blend of request kinds; it must be non-empty
	// and weights must be positive.
	Mix []MixEntry `json:"mix"`
	// Ramp, when non-empty, paces offered load: stage k applies its RPS
	// to the next Requests requests, in order. A zero RPS stage is
	// unpaced (as fast as the workers drain). Requests past the last
	// stage reuse it.
	Ramp []RampStage `json:"ramp,omitempty"`
	// SLO, when set, is evaluated over the run's report; a violated
	// budget makes dwmload exit nonzero.
	SLO *SLOBudget `json:"slo,omitempty"`
}

// MixEntry is one weighted request shape in the scenario's blend.
type MixEntry struct {
	// Kind is place, cache_hit, or stream. A place request is a fresh
	// computation every time (per-request derived seed); a cache_hit
	// request repeats one fixed request so every occurrence after the
	// first is served from the placement cache; a stream request opens a
	// session, appends Appends batches of Batch accesses, and deletes it.
	Kind string `json:"kind"`
	// Weight is the entry's share of the mix (relative, positive).
	Weight int `json:"weight"`
	// Workload names the trace generator (internal/workload) for place
	// and cache_hit kinds; empty selects "fir".
	Workload string `json:"workload,omitempty"`
	// Policy, Iterations, Restarts tune the placement request; zero
	// values select the server defaults.
	Policy     string `json:"policy,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
	Restarts   int    `json:"restarts,omitempty"`
	// Items, Appends, Batch shape stream requests: an Items-wide
	// session fed Appends batches of Batch accesses. Zero selects
	// 64 items, 4 appends, 256 accesses.
	Items   int `json:"items,omitempty"`
	Appends int `json:"appends,omitempty"`
	Batch   int `json:"batch,omitempty"`
}

// RampStage paces one slice of the request sequence.
type RampStage struct {
	// Requests is how many requests this stage covers.
	Requests int `json:"requests"`
	// RPS is the offered rate for the stage; 0 means unpaced.
	RPS float64 `json:"rps"`
}

// SLOBudget is the pass/fail contract evaluated over the report.
type SLOBudget struct {
	// MaxErrorRate bounds failed requests / total (0 disables).
	MaxErrorRate float64 `json:"max_error_rate,omitempty"`
	// MaxRetryRate bounds client retries (429s and 5xx/transport blips
	// absorbed by the retry loop) / total (0 disables).
	MaxRetryRate float64 `json:"max_retry_rate,omitempty"`
	// MaxP95MS bounds the overall client-side p95 latency (0 disables).
	MaxP95MS float64 `json:"max_p95_ms,omitempty"`
	// MinThroughputRPS bounds completed requests per second from below
	// (0 disables).
	MinThroughputRPS float64 `json:"min_throughput_rps,omitempty"`
}

func (s *Scenario) concurrency() int {
	if s.Concurrency > 0 {
		return s.Concurrency
	}
	return 4
}

func (s *Scenario) tenants() []string {
	if len(s.Tenants) > 0 {
		return s.Tenants
	}
	return []string{"default"}
}

// Validate checks the scenario's shape and resolves every workload name
// so a typo fails before any load is offered.
func (s *Scenario) Validate() error {
	if s.Requests <= 0 {
		return fmt.Errorf("scenario: requests must be positive, got %d", s.Requests)
	}
	if len(s.Mix) == 0 {
		return fmt.Errorf("scenario: mix is empty")
	}
	for i, m := range s.Mix {
		if m.Weight <= 0 {
			return fmt.Errorf("scenario: mix[%d] weight must be positive, got %d", i, m.Weight)
		}
		switch m.Kind {
		case kindPlace, kindCacheHit:
			if _, err := workload.ByName(m.workload()); err != nil {
				return fmt.Errorf("scenario: mix[%d]: %w", i, err)
			}
		case kindStream:
		default:
			return fmt.Errorf("scenario: mix[%d] has unknown kind %q", i, m.Kind)
		}
	}
	for i, st := range s.Ramp {
		if st.Requests <= 0 {
			return fmt.Errorf("scenario: ramp[%d] requests must be positive, got %d", i, st.Requests)
		}
		if st.RPS < 0 {
			return fmt.Errorf("scenario: ramp[%d] rps must be >= 0, got %g", i, st.RPS)
		}
	}
	return nil
}

func (m MixEntry) workload() string {
	if m.Workload != "" {
		return m.Workload
	}
	return "fir"
}

func (m MixEntry) items() int {
	if m.Items > 0 {
		return m.Items
	}
	return 64
}

func (m MixEntry) appends() int {
	if m.Appends > 0 {
		return m.Appends
	}
	return 4
}

func (m MixEntry) batch() int {
	if m.Batch > 0 {
		return m.Batch
	}
	return 256
}

// RPSFor returns the offered rate for request index i under the ramp
// (0 = unpaced). Requests past the last stage reuse its rate.
func (s *Scenario) RPSFor(i int) float64 {
	if len(s.Ramp) == 0 {
		return 0
	}
	for _, st := range s.Ramp {
		if i < st.Requests {
			return st.RPS
		}
		i -= st.Requests
	}
	return s.Ramp[len(s.Ramp)-1].RPS
}

// ParseScenario decodes a scenario from JSON and validates it.
func ParseScenario(r io.Reader) (*Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// PlannedRequest is one fully materialized request in the plan.
type PlannedRequest struct {
	// Index is the request's position in the offered sequence.
	Index  int
	Kind   string
	Tenant string
	// Place is set for place/cache_hit kinds. Its canonical trace ID
	// (serve.RequestTrace) is precomputed in TraceID, so the report can
	// name the trace of a slow request without a server round-trip.
	Place   *serve.PlaceRequest
	TraceID string
	// Stream is set for stream kinds.
	Stream *StreamPlan
}

// StreamPlan is the materialized shape of one stream request: create,
// append the batches in order, delete.
type StreamPlan struct {
	Req     serve.StreamRequest
	Batches [][]int
}

// deriveState folds the scenario identity into the chain's initial state.
func (s *Scenario) deriveState() uint64 {
	h := uint64(0x9E3779B97F4A7C15) ^ uint64(s.Seed)
	for i := 0; i < len(s.Name); i++ {
		h = stats.Mix64(h ^ uint64(s.Name[i]))
	}
	return h
}

// BuildPlan expands the scenario into its request sequence. The plan is
// a pure function of the scenario: every choice comes from the splitmix
// chain over (scenario identity, request index).
func BuildPlan(s *Scenario) ([]PlannedRequest, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	totalWeight := 0
	for _, m := range s.Mix {
		totalWeight += m.Weight
	}
	tenants := s.tenants()
	state := s.deriveState()
	plan := make([]PlannedRequest, 0, s.Requests)
	for i := 0; i < s.Requests; i++ {
		h := stats.Mix64(state + uint64(i)*0xD1B54A32D192ED03)
		pick := int(h % uint64(totalWeight))
		var entry MixEntry
		entryIdx := 0
		for k, m := range s.Mix {
			if pick < m.Weight {
				entry, entryIdx = m, k
				break
			}
			pick -= m.Weight
		}
		pr := PlannedRequest{
			Index:  i,
			Kind:   entry.Kind,
			Tenant: tenants[i%len(tenants)],
		}
		switch entry.Kind {
		case kindPlace, kindCacheHit:
			// A place request derives a fresh seed per index (distinct
			// computations — the annealer actually runs); a cache_hit
			// request pins the seed to the mix entry, so every occurrence
			// is the same request and all but the first are served from
			// the placement cache.
			reqSeed := int64(stats.Mix64(h + 1))
			if entry.Kind == kindCacheHit {
				reqSeed = int64(stats.Mix64(state + uint64(entryIdx) + 0x1000))
			}
			gen, err := workload.ByName(entry.workload())
			if err != nil {
				return nil, err
			}
			var sb strings.Builder
			if err := trace.Encode(&sb, gen.Make(reqSeed)); err != nil {
				return nil, fmt.Errorf("scenario: encode %s trace: %w", entry.workload(), err)
			}
			req := &serve.PlaceRequest{
				Trace:      sb.String(),
				Policy:     entry.Policy,
				Seed:       reqSeed,
				Iterations: entry.Iterations,
				Restarts:   entry.Restarts,
				Tenant:     pr.Tenant,
			}
			pr.Place = req
			pr.TraceID = serve.RequestTrace(*req).TraceID
		case kindStream:
			items := entry.items()
			batches := make([][]int, entry.appends())
			bh := stats.Mix64(h + 2)
			for b := range batches {
				batch := make([]int, entry.batch())
				for a := range batch {
					bh = stats.Mix64(bh + 0x632BE59BD9B4E019)
					batch[a] = int(bh % uint64(items))
				}
				batches[b] = batch
			}
			pr.Stream = &StreamPlan{
				Req: serve.StreamRequest{
					Name:  fmt.Sprintf("%s-%06d", s.Name, i),
					Items: items,
					Seed:  int64(stats.Mix64(h + 3)),
				},
				Batches: batches,
			}
		}
		plan = append(plan, pr)
	}
	return plan, nil
}

// SmokeScenario is the built-in deterministic scenario behind
// -preset smoke and the load-smoke CI target: small enough to finish in
// seconds, broad enough to exercise every request kind, two tenants,
// and a lenient SLO that still catches a wedged server.
func SmokeScenario() *Scenario {
	return &Scenario{
		Name:        "smoke",
		Seed:        42,
		Requests:    24,
		Concurrency: 4,
		Tenants:     []string{"alpha", "beta"},
		Mix: []MixEntry{
			{Kind: kindPlace, Weight: 3, Workload: "fir", Iterations: 400, Restarts: 1},
			{Kind: kindCacheHit, Weight: 2, Workload: "matmul", Iterations: 400, Restarts: 1},
			{Kind: kindStream, Weight: 1, Items: 48, Appends: 3, Batch: 128},
		},
		SLO: &SLOBudget{
			// Any error fails the smoke: 1/24 already exceeds this.
			MaxErrorRate:     0.001,
			MaxRetryRate:     2,
			MaxP95MS:         60000,
			MinThroughputRPS: 0.05,
		},
	}
}
