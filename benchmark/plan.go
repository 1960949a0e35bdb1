package main

// This file generates every input the benchmark feeds the system. All of
// it is a pure function of (workload, seed, seconds): the trace texts, the
// arrival schedules and the request mix. The program under test only ever
// sees the generated inputs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Workload kinds.
const (
	kindOffline = "offline"
	kindServe   = "serve"
)

// Request kinds on the serving path.
const (
	reqPlace  = "place"
	reqAppend = "append"
	reqHit    = "hit"
)

// spec is one workload's fixed configuration. Every field takes part in
// the config hash that heads the report.
type spec struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Pool is the number of distinct inputs an offline workload cycles
	// through; the timed loop places the whole pool once per pass.
	Pool int `json:"pool,omitempty"`
	// Rate is the open-loop arrival rate (requests per second), and
	// AppendShare the fraction of request pairs that are stream appends.
	Rate        float64 `json:"rate,omitempty"`
	AppendShare float64 `json:"append_share,omitempty"`
	// Capacity is the nominal closed-loop capacity (requests per second)
	// that sizes the traced run's saturation phase: it sends
	// Capacity·seconds·satShare requests, so the phase takes about satShare
	// of -seconds here.
	Capacity float64 `json:"capacity,omitempty"`
	// SLOms is the latency limit per request kind; a request over it, or
	// failed, counts as an SLO miss.
	SLOms map[string]float64 `json:"slo_ms,omitempty"`
}

// specs lists the workloads in report order. The offline pools are small
// so that each input is placed about ten times in a run: latency_ms_best
// takes each input's fastest placement. The open-loop rates sit well
// below the closed-loop capacity measured on a 2-core machine (~45 req/s
// for serve-place, ~400 req/s for serve-hit). serve-place runs at about a
// quarter of it: its jobs share the two cores with the handlers and the
// client, and nearer half capacity bursts of arrivals queue long enough to
// make its latency swing by a third from run to run. serve-hit runs at
// about a tenth, because the server keeps every job, request text and
// parsed trace included (~200 KB per hit): every request grows the heap,
// and these sizes keep a 20 s run near 350 MiB at its peak.
var specs = []spec{
	{Name: "offline-anneal", Kind: kindOffline, Pool: 8},
	{Name: "offline-dense", Kind: kindOffline, Pool: 8},
	{Name: "serve-place", Kind: kindServe, Rate: 10, AppendShare: 0.3, Capacity: 45,
		SLOms: map[string]float64{reqPlace: 250, reqAppend: 50}},
	{Name: "serve-hit", Kind: kindServe, Rate: 45, Capacity: 200,
		SLOms: map[string]float64{reqHit: 25}},
}

// Input shapes shared by the workloads.
const (
	// offline-anneal: Markov locality walks, 32 accesses per item, and an
	// anneal budget of 12000 proposals per item.
	annealMinN, annealMaxN = 128, 320
	annealAccessesPerItem  = 32
	annealItersPerItem     = 12000
	// offline-dense: half Zipf, half phased traces of 8192 accesses with
	// the library's default anneal budget.
	denseAccesses                = 8192
	denseZipfMinN, denseZipfMaxN = 96, 160
	densePhMinN, densePhMaxN     = 64, 112
	densePhases                  = 4
	denseSkew                    = 1.3
	// serve-place streams: 4 streams over 64 items, 256 accesses per append.
	streamCount, streamItems, appendLen = 4, 64, 256
	// serve-hit: renumbered variants per suite kernel.
	hitVariants = 8
	// Phase lengths: the open-loop main phase lasts -seconds, and the
	// traced run's closed-loop saturation phase is sized to take satShare
	// of that.
	warmSeconds = 1.0
	satShare    = 0.25
	// satCallers·nproc callers drive the saturation phase. With only nproc
	// callers, serve-place's two workers sit idle while each caller sleeps
	// out its 50 ms poll, and the phase measures the poll, not the service.
	satCallers = 4
)

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// subSeed derives an independent seed from (seed, tag) with FNV and the
// splitmix64 finalizer, so every input stream is decorrelated from the
// others yet fixed by the run seed.
func subSeed(seed int64, tag string) int64 {
	h := fnv.New64a()
	h.Write([]byte(tag))
	z := uint64(seed) ^ h.Sum64()
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// grid returns k evenly spaced integers from lo to hi inclusive.
func grid(lo, hi, k int) []int {
	out := make([]int, k)
	for i := range out {
		if k == 1 {
			out[i] = lo
			continue
		}
		out[i] = lo + (hi-lo)*i/(k-1)
	}
	return out
}

func encodeTrace(t *trace.Trace) ([]byte, error) {
	var b bytes.Buffer
	if err := trace.Encode(&b, t); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// offlineInput is one trace the offline loop places with the full
// library chain.
type offlineInput struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	// Text is the trace in the dwmtrace text format; the timed loop
	// decodes it on every placement.
	Text []byte `json:"text"`
	// Seed and Iters parameterize the anneal (Iters 0 selects the
	// library default of 2000·n proposals).
	Seed  int64 `json:"seed"`
	Iters int   `json:"iters"`
}

// proposals is the anneal budget the input runs.
func (in offlineInput) proposals() int {
	if in.Iters > 0 {
		return in.Iters
	}
	return 2000 * in.N
}

// offlineInputs builds an offline workload's pool. Sizes are an even grid
// over the workload's range, so every seed places the same size mix and
// only the trace contents and the order change with the seed.
func offlineInputs(s spec, seed int64, pool int) ([]offlineInput, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, s.Name)))
	var ins []offlineInput
	switch s.Name {
	case "offline-anneal":
		for _, n := range grid(annealMinN, annealMaxN, pool) {
			sd := rng.Int63()
			tr := workload.Markov(n, annealAccessesPerItem*n, sd)
			text, err := encodeTrace(tr)
			if err != nil {
				return nil, err
			}
			ins = append(ins, offlineInput{Name: tr.Name, N: n, Text: text, Seed: sd, Iters: annealItersPerItem * n})
		}
	case "offline-dense":
		zipf := grid(denseZipfMinN, denseZipfMaxN, (pool+1)/2)
		phased := grid(densePhMinN, densePhMaxN, pool/2)
		for i := 0; i < pool; i++ {
			sd := rng.Int63()
			var tr *trace.Trace
			if i%2 == 0 {
				tr = workload.Zipf(zipf[i/2], denseAccesses, denseSkew, sd)
			} else {
				tr = workload.Phased(phased[i/2], denseAccesses, densePhases, denseSkew, sd)
			}
			text, err := encodeTrace(tr)
			if err != nil {
				return nil, err
			}
			ins = append(ins, offlineInput{Name: tr.Name, N: tr.NumItems, Text: text, Seed: sd})
		}
	default:
		return nil, fmt.Errorf("workload %q has no offline inputs", s.Name)
	}
	order := rng.Perm(len(ins))
	out := make([]offlineInput, len(ins))
	for i, j := range order {
		out[i] = ins[j]
	}
	return out, nil
}

// kernel is one suite trace the serving workloads submit. Variant 0 is
// the generator's own numbering; variants 1..hitVariants renumber the
// items with seeded permutations, which leaves the transition graph
// isomorphic, so a cache filled with variant 0 serves them as exact hits.
type kernel struct {
	Name     string   `json:"name"`
	Items    int      `json:"items"`
	Variants []string `json:"variants"`
	// graphs holds each variant's transition graph, for re-costing the
	// placements the service returns.
	graphs []*graph.Graph
}

// kernels builds the suite kernels of a serving workload.
func kernels(s spec, seed int64) ([]kernel, error) {
	variants := 0
	if s.Name == "serve-hit" {
		variants = hitVariants
	}
	var out []kernel
	for _, gen := range workload.Suite() {
		rng := rand.New(rand.NewSource(subSeed(seed, s.Name+"/"+gen.Name)))
		base := gen.Make(rng.Int63())
		k := kernel{Name: gen.Name, Items: base.NumItems}
		for v := 0; v <= variants; v++ {
			tr := base
			if v > 0 {
				tr = renumber(base, rng.Perm(base.NumItems))
			}
			text, err := encodeTrace(tr)
			if err != nil {
				return nil, err
			}
			g, err := graph.FromTrace(tr)
			if err != nil {
				return nil, err
			}
			g.Freeze()
			k.Variants = append(k.Variants, string(text))
			k.graphs = append(k.graphs, g)
		}
		out = append(out, k)
	}
	return out, nil
}

// renumber maps every item through perm, keeping name and length (the
// service derives its anneal seed from both).
func renumber(t *trace.Trace, perm []int) *trace.Trace {
	out := &trace.Trace{Name: t.Name, NumItems: t.NumItems, Accesses: make([]trace.Access, len(t.Accesses))}
	for i, a := range t.Accesses {
		out.Accesses[i] = trace.Access{Item: perm[a.Item], Write: a.Write}
	}
	return out
}

// request is one planned call on the serving path.
type request struct {
	// Phase and Index identify the request within the run.
	Phase string `json:"phase"`
	Index int    `json:"index"`
	// At is the scheduled send time from the start of an open-loop phase
	// (zero in the closed-loop saturation phase).
	At   time.Duration `json:"at"`
	Kind string        `json:"kind"`
	// Kernel and Variant pick the trace of a place or hit request, and
	// Seed is its anneal seed.
	Kernel  int   `json:"kernel"`
	Variant int   `json:"variant"`
	Seed    int64 `json:"seed"`
	// Stream and Accesses describe an append.
	Stream   int   `json:"stream"`
	Accesses []int `json:"accesses,omitempty"`
}

// hitSeed is the anneal seed shared by the serve-hit setup placements and
// every hit request; the cache key includes it.
func hitSeed(seed int64) int64 { return subSeed(seed, "serve-hit/seed") }

// phaseRequests plans one phase of a serving workload: placePairs pairs
// of place (or, on serve-hit, hit) requests and appendPairs pairs of
// appends, in seeded order. The two requests of a pair (2k, 2k+1) have the
// same kind and kernel, so that a traced run can trace one of each pair
// and compare it with its untraced twin. An open-loop phase (duration > 0)
// sends them at seeded Poisson arrival times: a Poisson process
// conditioned on its count, so every seed sends the same number.
func phaseRequests(s spec, seed int64, phase string, nkernels, placePairs, appendPairs int, duration float64) []request {
	rng := rand.New(rand.NewSource(subSeed(seed, s.Name+"/"+phase)))
	kinds := make([]string, placePairs+appendPairs)
	for k := range kinds {
		switch {
		case k < appendPairs:
			kinds[k] = reqAppend
		case s.Name == "serve-hit":
			kinds[k] = reqHit
		default:
			kinds[k] = reqPlace
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	count := 2 * len(kinds)
	var at []time.Duration
	if duration > 0 {
		at = make([]time.Duration, count)
		for i := range at {
			at[i] = time.Duration(rng.Float64() * duration * float64(time.Second))
		}
		sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	}
	reqs := make([]request, count)
	var order []int
	places, appends := 0, 0
	var pair request
	for i := range reqs {
		if i%2 == 0 {
			pair = request{Kind: kinds[i/2]}
			if pair.Kind == reqAppend {
				pair.Stream = appends % streamCount
				appends++
			} else {
				// Kernels cycle through seeded permutations, so every
				// kernel appears equally often in any long enough phase.
				if places%nkernels == 0 {
					order = rng.Perm(nkernels)
				}
				pair.Kernel = order[places%nkernels]
				places++
			}
		}
		r := pair
		r.Phase, r.Index = phase, i
		if at != nil {
			r.At = at[i]
		}
		switch r.Kind {
		case reqPlace:
			r.Seed = rng.Int63()
		case reqHit:
			r.Seed = hitSeed(seed)
			r.Variant = 1 + rng.Intn(hitVariants)
		case reqAppend:
			r.Accesses = workload.Markov(streamItems, appendLen, rng.Int63()).Items()
		}
		reqs[i] = r
	}
	return reqs
}

// servePlan is every input of one serving run.
type servePlan struct {
	Kernels []kernel  `json:"kernels"`
	Warm    []request `json:"warm"`
	Main    []request `json:"main"`
	Sat     []request `json:"sat"`
}

func planServe(s spec, seed int64, secs float64) (*servePlan, error) {
	ks, err := kernels(s, seed)
	if err != nil {
		return nil, err
	}
	nk := len(ks)
	// An open-loop phase sends rate·duration requests, AppendShare of the
	// pairs appends.
	open := func(phase string, duration float64) []request {
		pairs := int(s.Rate*duration/2 + 0.5)
		appends := int(float64(pairs)*s.AppendShare + 0.5)
		return phaseRequests(s, seed, phase, nk, pairs-appends, appends, duration)
	}
	// The saturation phase places whole cycles of kernels, so every seed
	// measures capacity on the same mix of heavy and light kernels.
	cycles := int(s.Capacity*secs*satShare*(1-s.AppendShare)/2/float64(nk) + 0.5)
	if cycles < 1 {
		cycles = 1
	}
	satPlace := cycles * nk
	satAppend := int(float64(satPlace)*s.AppendShare/(1-s.AppendShare) + 0.5)
	return &servePlan{
		Kernels: ks,
		Warm:    open("warm", warmSeconds),
		Main:    open("main", secs),
		Sat:     phaseRequests(s, seed, "sat", nk, satPlace, satAppend, 0),
	}, nil
}

// configHash fingerprints the workload configuration (not the seed), so
// two reports can be checked for comparable settings.
func configHash(cfg config) string {
	b, _ := json.Marshal(struct {
		Specs     []spec
		Seconds   float64
		SetupReps int
		Pool      int
		Consts    string
	}{specs, cfg.Seconds, cfg.SetupReps, cfg.Pool, strings.Join([]string{
		fmt.Sprint(annealMinN, annealMaxN, annealAccessesPerItem, annealItersPerItem),
		fmt.Sprint(denseAccesses, denseZipfMinN, denseZipfMaxN, densePhMinN, densePhMaxN, densePhases, denseSkew),
		fmt.Sprint(streamCount, streamItems, appendLen, hitVariants, warmSeconds, satShare, satCallers),
	}, ";")})
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}
