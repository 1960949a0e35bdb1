#!/bin/sh
# obs-smoke: end-to-end check of the observability surface. Three legs:
#   1. dwmbench -trace writes a loadable Chrome trace_event file and the
#      rendered tables are byte-identical with tracing on and off (the
#      "telemetry is inert" contract).
#   2. dwmserved serves a conformant Prometheus exposition (linted with
#      cmd/promlint), exposes pprof, and streams spans over
#      /debug/events.
#   3. A finished job's status carries the live-progress block.
# Run from the repository root (the Makefile obs-smoke target).
. "$(dirname "$0")/lib.sh"

# --- leg 1: dwmbench tracing -------------------------------------------
build dwmbench promlint dwmserved

"$dir/dwmbench" -seed 1 -only E2,E5 >"$dir/plain.txt" 2>/dev/null
"$dir/dwmbench" -seed 1 -only E2,E5 -trace "$dir/run.trace.json" >"$dir/traced.txt" 2>/dev/null
same "$dir/plain.txt" "$dir/traced.txt" "tables differ with tracing enabled:"
nspans=$(jq '.traceEvents | length' "$dir/run.trace.json")
[ "$nspans" -ge 3 ] || fail "trace has only $nspans events for a two-experiment run"
jq -e '.traceEvents | all(has("name") and has("ph") and has("ts") and has("dur"))' \
	>/dev/null "$dir/run.trace.json" || fail "trace events missing required fields"

# --- leg 2: dwmserved metrics + events ---------------------------------
$GO run ./cmd/tracegen -workload fir -o "$dir/trace.txt"
jq -Rs '{trace: ., seed: 7, iterations: 20000}' <"$dir/trace.txt" >"$dir/req.json"

boot "$dir/addr" -workers 2 -events 4096
id=$(submit "$dir/req.json")
wait_job "$id" "$dir/job.json"

lint_metrics || fail "/metrics exposition failed conformance lint"
grep -q '^dwm_serve_job_wall_ms_bucket' "$dir/metrics.txt" ||
	fail "/metrics missing the job-wall histogram"
curl -fsS "$base/debug/pprof/" >/dev/null || fail "/debug/pprof/ unreachable"
events=$(curl -fsS "$base/debug/events")
printf '%s' "$events" | jq -e '.enabled' >/dev/null ||
	fail "/debug/events reports tracing disabled despite -events"
printf '%s' "$events" | jq -e '[.spans[].name] | index("serve.job.run")' >/dev/null ||
	fail "no serve.job.run span in /debug/events: $events"

# --- leg 3: job progress block -----------------------------------------
jq -e '.progress and .progress.proposals > 0 and .progress.chains >= 1' >/dev/null "$dir/job.json" ||
	fail "finished job carries no progress block: $(cat "$dir/job.json")"

drain
echo "obs-smoke: ok (inert tracing, conformant exposition, live introspection)"
