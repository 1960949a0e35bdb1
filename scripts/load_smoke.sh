#!/bin/sh
# load-smoke: end-to-end check of the dwmload SLO harness against a live
# journaled daemon. Four legs:
#   1. dwmload's built-in smoke scenario runs clean: every request succeeds, the
#      SLO budget holds, and BENCH_dwmload.json lands with nonzero
#      client-side percentiles.
#   2. The per-tenant labeled series the run produced pass the promlint
#      conformance checker under a cardinality bound, and both scenario
#      tenants show up as distinct series.
#   3. Cross-process propagation closes the loop: a trace ID the client
#      computed locally (reported in the SLO report's slowest-request
#      samples) is found verbatim on server-side spans in /debug/events.
#   4. SIGTERM drains the daemon with exit 0.
# Run from the repository root (the Makefile load-smoke target). Writes
# BENCH_dwmload.json in the working directory — the committed artifact.
. "$(dirname "$0")/lib.sh"

build dwmserved dwmload promlint
boot "$dir/addr" -workers 2 -queue 64 -events 8192 -journal "$dir/journal"

# --- leg 1: the smoke scenario passes its SLO --------------------------
"$dir/dwmload" -addr "$base" -out BENCH_dwmload.json ||
	fail "dwmload exited nonzero (SLO violation or error)" "$dir/log"
jq -e '.slo.pass' >/dev/null BENCH_dwmload.json || {
	jq .slo BENCH_dwmload.json >"$dir/slo.json"
	fail "report SLO did not pass" "$dir/slo.json"
}
jq -e '.errors == 0 and .overall.p50_ms > 0 and .overall.p95_ms > 0 and .overall.p99_ms > 0' \
	>/dev/null BENCH_dwmload.json || {
	jq '{errors, overall}' BENCH_dwmload.json >"$dir/overall.json"
	fail "report has errors or zero percentiles:" "$dir/overall.json"
}
jq -e '.cache_hits > 0' >/dev/null BENCH_dwmload.json ||
	fail "no cache hits despite cache_hit mix entries"

# --- leg 2: labeled exposition is conformant and per-tenant ------------
lint_metrics -max-series 128 || fail "labeled exposition failed conformance lint"
for tenant in alpha beta; do
	grep -q "dwm_serve_tenant_requests{tenant=\"$tenant\"" "$dir/metrics.txt" ||
		fail "no per-tenant series for $tenant on /metrics"
done
grep -q '# {trace_id="' "$dir/metrics.txt" || fail "no exemplar annotations on /metrics"

# --- leg 3: client trace IDs appear on server-side spans ---------------
# Stream appends carry no trace ID, and the report omits the field for
# them, so an absent trace_id counts as empty.
tid=$(jq -r '[.slowest[] | select((.trace_id // "") != "")][0].trace_id' BENCH_dwmload.json)
if [ -z "$tid" ] || [ "$tid" = "null" ]; then
	fail "report has no trace IDs among slowest requests"
fi
curl -fsS "$base/debug/events" >"$dir/events.json"
jq -e --arg t "$tid" '[.spans[].trace] | index($t) != null' >/dev/null "$dir/events.json" || {
	jq '[.spans[].trace] | unique' "$dir/events.json" >"$dir/traces.json"
	fail "client trace ID $tid not found on any server span" "$dir/traces.json"
}

# --- leg 4: clean drain ------------------------------------------------
drain
echo "load-smoke: ok (SLO pass, labeled exposition conformant, trace propagation closed end to end)"
