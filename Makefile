GO ?= go

.PHONY: all build bench-vet vet lint lint-self lint-bench fmt-check test race race-repeat bench-smoke bench-report merge-smoke determinism-smoke golden-check serve-smoke obs-smoke cache-smoke stream-smoke crash-smoke load-smoke chaos ci

all: ci

build:
	$(GO) build ./...

# The benchmark harness is a nested module the root build cannot see;
# vet it on its own so a deleted export it imports fails here, not in
# bash benchmark/run.sh.
bench-vet:
	cd benchmark && GOPROXY=off GOWORK=off $(GO) vet .

vet:
	$(GO) vet ./...

# dwmlint enforces the determinism contract (DESIGN.md §9) and the
# dataflow invariants (DESIGN.md §14): no global RNG state, no
# wall-clock reads outside obs/the runner, no map-order leaks into
# results, no naked goroutines, no retained caller slices, no frozen-CSR
# or lock-contract violations, cancellation threaded everywhere, no
# production code that only tests call (testonly). Zero
# unsuppressed diagnostics required; exemptions carry //dwmlint:ignore
# justifications. The golden fixtures run first so a broken analyzer
# can't silently pass an unsound tree.
lint:
	$(GO) test ./internal/analysis/... -run 'TestSeededRand|TestMapOrder|TestWallTime|TestBareGo|TestSliceShare|TestFrozenMut|TestGuardedField|TestCtxFlow|TestTestOnly'
	$(GO) run ./cmd/dwmlint ./...

# The analyzers must hold themselves to their own rules.
lint-self:
	$(GO) run ./cmd/dwmlint ./internal/analysis/... ./cmd/dwmlint

# Record the full-module dwmlint wall-clock under lint_bench in the
# committed report (carried across dwmbench merges like delta_bench).
lint-bench:
	$(GO) run ./cmd/dwmlint -bench BENCH_dwmbench.json ./...

# Fail if any file needs gofmt (prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The admission-path tests that race submissions against each other and
# against shutdown, and the job-lifetime tests that race waited GETs and
# DELETEs against a worker finishing the job (the queue's task and the
# registered job are read by different goroutines), repeated under the
# race detector: a lost-update bug shows up in some runs and not others.
race-repeat:
	$(GO) test -race -count=10 -timeout 120s -run 'TestConcurrentClientKeyOneJob|TestAdmit|TestFinishedJobRetention|TestWaitAndCancelRaceFinish' ./internal/serve

# One iteration of the heaviest experiment benchmark, of the Propose and
# anneal-chain layer benchmarks, and of every graph and cost benchmark:
# catches regressions (or a broken or panicking benchmark) that only
# show up under the full pipeline without paying for a statistically
# meaningful run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkE2MainComparison$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkPropose$$' -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkTwoOpt$$' -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkTwoOptWindowed$$' -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkAnnealChain$$' -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/graph ./internal/cost

# Refresh BENCH_dwmbench.json (per-experiment wall times with deltas vs
# the committed report).
bench-report:
	$(GO) run ./cmd/dwmbench -seed 1 -json BENCH_dwmbench.json > /dev/null

# Exercise the -json + -only merge path end to end: two partial runs
# against the same temp report must leave both experiments' entries.
merge-smoke:
	@tmp="$$(mktemp)"; trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./cmd/dwmbench -only E1 -json "$$tmp" > /dev/null && \
	$(GO) run ./cmd/dwmbench -only E5 -json "$$tmp" > /dev/null && \
	grep -q '"id": "E1"' "$$tmp" && grep -q '"id": "E5"' "$$tmp" || \
	{ echo "merge-smoke: E1 entry lost after -only E5 run"; exit 1; }

# The headline guarantee, checked end to end: the rendered tables of a
# sequential run, an 8-worker run, and an 8-worker run with span tracing
# enabled must all be byte-identical for the same seed. The traced run
# proves the telemetry layer is inert — spans and histograms observe the
# pipeline without perturbing a single result byte. E8 is excluded
# because its wall-clock time column is the experiment's output (see its
# dwmlint:ignore justification).
DETERMINISTIC_EXPS = E1,E2,E3,E4,E5,E6,E7,E9,E10,E11,E12,E13,E14,E15,E16,E17,E18,E19,E20,E21,E22

determinism-smoke:
	@a="$$(mktemp)"; b="$$(mktemp)"; c="$$(mktemp)"; t="$$(mktemp)"; \
	trap 'rm -f "$$a" "$$b" "$$c" "$$t"' EXIT; \
	$(GO) run ./cmd/dwmbench -seed 1 -workers 1 -only $(DETERMINISTIC_EXPS) > "$$a" && \
	$(GO) run ./cmd/dwmbench -seed 1 -workers 8 -only $(DETERMINISTIC_EXPS) > "$$b" && \
	$(GO) run ./cmd/dwmbench -seed 1 -workers 8 -only $(DETERMINISTIC_EXPS) -trace "$$t" > "$$c" 2>/dev/null && \
	if ! cmp -s "$$a" "$$b"; then \
		echo "determinism-smoke: workers=1 and workers=8 tables differ:"; \
		diff -u "$$a" "$$b"; exit 1; \
	fi; \
	if ! cmp -s "$$a" "$$c"; then \
		echo "determinism-smoke: tables differ with tracing enabled:"; \
		diff -u "$$a" "$$c"; exit 1; \
	fi; \
	d="$$(mktemp)"; e="$$(mktemp)"; pc="$$(mktemp -d)"; \
	trap 'rm -f "$$a" "$$b" "$$c" "$$t" "$$d" "$$e"; rm -rf "$$pc"' EXIT; \
	$(GO) run ./cmd/dwmbench -seed 1 -workers 8 -only E2 -cache "$$pc" > "$$d" 2>/dev/null && \
	$(GO) run ./cmd/dwmbench -seed 1 -workers 8 -only E2 -cache "$$pc" > "$$e" 2>/dev/null && \
	if ! cmp -s "$$d" "$$e"; then \
		echo "determinism-smoke: warm-cache E2 table differs from cold:"; \
		diff -u "$$d" "$$e"; exit 1; \
	fi
	$(GO) test ./internal/faultfs/ -run 'TestScheduleDeterministic' -count=2

# The committed golden: the deterministic tables of a seed-1 run must
# match, byte for byte, the same sections of results/dwmbench_seed1.txt.
# determinism-smoke only compares runs of the current tree with each
# other; this catches a change that shifts every run the same way (a
# different RNG draw, accepted move or tie-break). Each table is one
# blank-line-separated paragraph headed by its ID, which is how the awk
# filter picks the golden's sections. E8's time column is wall clock, so
# its rows are compared on algorithm, n and cost only (E8_COLUMNS; the
# other lines have their spacing squeezed, as the column widths follow
# the times).
GOLDEN = results/dwmbench_seed1.txt
E8_COLUMNS = awk '{ if (NF == 4 && $$2 ~ /^[0-9]+$$/) print $$1, $$2, $$4; else { $$1 = $$1; print } }'

golden-check:
	@set -e; d="$$(mktemp -d)"; trap 'rm -rf "$$d"' EXIT; \
	$(GO) run ./cmd/dwmbench -seed 1 -only $(DETERMINISTIC_EXPS) > "$$d/run"; \
	awk -v ids=",$(DETERMINISTIC_EXPS)," 'BEGIN { RS = ""; ORS = "\n\n" } index(ids, "," $$1 ",")' \
		$(GOLDEN) > "$$d/golden"; \
	if ! cmp -s "$$d/golden" "$$d/run"; then \
		echo "golden-check: tables differ from $(GOLDEN):"; \
		diff -u "$$d/golden" "$$d/run"; exit 1; \
	fi; \
	$(GO) run ./cmd/dwmbench -seed 1 -only E8 > "$$d/e8"; \
	awk 'BEGIN { RS = ""; ORS = "\n\n" } $$1 == "E8"' $(GOLDEN) | $(E8_COLUMNS) > "$$d/e8-golden"; \
	$(E8_COLUMNS) "$$d/e8" > "$$d/e8-run"; \
	if ! cmp -s "$$d/e8-golden" "$$d/e8-run"; then \
		echo "golden-check: E8 algorithm, n or cost differs from $(GOLDEN):"; \
		diff -u "$$d/e8-golden" "$$d/e8-run"; exit 1; \
	fi

# End-to-end service smoke: boot dwmserved on a kernel-chosen port,
# submit the same job twice, require byte-identical results, and check
# SIGTERM drains with exit 0.
serve-smoke:
	@GO="$(GO)" sh scripts/serve_smoke.sh

# Observability smoke: dwmbench -trace yields a loadable trace without
# changing a result byte, /metrics passes the promlint conformance
# checker, and /debug/events + the job progress block work end to end.
obs-smoke:
	@GO="$(GO)" sh scripts/obs_smoke.sh

# Placement-cache smoke: duplicate and renumbered submissions to
# dwmserved are served from the cache (cache_hit=true, byte-identical
# result, anneal counters flat), the hit counter lands on /metrics, and
# the new series stay promlint-clean.
cache-smoke:
	@GO="$(GO)" sh scripts/cache_smoke.sh

# Streaming smoke: chunked and one-shot appends to dwmserved streams end
# byte-identical, oversized traces are rejected with 400, the stream
# series land on /metrics promlint-clean, and SIGTERM drains with a
# stream still live.
stream-smoke:
	@GO="$(GO)" sh scripts/stream_smoke.sh

# Durability smoke: SIGKILL a journaled dwmserved mid-anneal, restart on
# the same journal, and require the recovered result byte-identical to
# an uninterrupted run; then tear the journal tail and flip a bit and
# require truncate/quarantine repair (DESIGN.md §15).
crash-smoke:
	@GO="$(GO)" sh scripts/crash_smoke.sh

# Load-test smoke: dwmload's deterministic smoke scenario against a
# live journaled daemon must pass its SLO budget and write
# BENCH_dwmload.json with nonzero percentiles; the per-tenant labeled
# series pass promlint under a cardinality bound; and a trace ID the
# client computed locally is found verbatim on server-side spans in
# /debug/events (cross-process propagation, closed end to end).
load-smoke:
	@GO="$(GO)" sh scripts/load_smoke.sh

# Widened chaos sweep: the faultfs atomicity property (acknowledged
# appends survive injected short writes, fsync errors, and crashes;
# unacknowledged ones never resurrect) over many more deterministic
# fault schedules than the in-tree test's default 16.
chaos:
	CHAOS_SEEDS=128 $(GO) test ./internal/faultfs/ -run TestChaosAtomicity -count=1

ci: fmt-check vet lint lint-self build bench-vet race race-repeat bench-smoke merge-smoke determinism-smoke golden-check serve-smoke obs-smoke cache-smoke stream-smoke crash-smoke load-smoke chaos
