#!/bin/sh
# load-smoke: end-to-end check of the dwmload SLO harness against a live
# journaled daemon. Four legs:
#   1. dwmload's smoke preset runs clean: every request succeeds, the
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
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
pid=""
cleanup() {
	if [ -n "$pid" ]; then
		kill "$pid" 2>/dev/null || true
		wait "$pid" 2>/dev/null || true
	fi
	rm -rf "$dir"
}
trap cleanup EXIT

$GO build -o "$dir/dwmserved" ./cmd/dwmserved
$GO build -o "$dir/dwmload" ./cmd/dwmload
$GO build -o "$dir/promlint" ./cmd/promlint

"$dir/dwmserved" -addr 127.0.0.1:0 -addrfile "$dir/addr" -workers 2 -queue 64 \
	-events 8192 -journal "$dir/journal" >"$dir/log" &
pid=$!
i=0
while [ ! -s "$dir/addr" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "load-smoke: daemon never wrote its address file" >&2
		cat "$dir/log" >&2
		exit 1
	fi
	sleep 0.05
done
base="http://$(cat "$dir/addr")"

# --- leg 1: the smoke scenario passes its SLO --------------------------
"$dir/dwmload" -addr "$base" -preset smoke -out BENCH_dwmload.json || {
	echo "load-smoke: dwmload exited nonzero (SLO violation or error)" >&2
	cat "$dir/log" >&2
	exit 1
}
jq -e '.slo.pass' >/dev/null BENCH_dwmload.json || {
	echo "load-smoke: report SLO did not pass" >&2
	jq .slo BENCH_dwmload.json >&2
	exit 1
}
jq -e '.errors == 0 and .overall.p50_ms > 0 and .overall.p95_ms > 0 and .overall.p99_ms > 0' \
	>/dev/null BENCH_dwmload.json || {
	echo "load-smoke: report has errors or zero percentiles:" >&2
	jq '{errors, overall}' BENCH_dwmload.json >&2
	exit 1
}
jq -e '.cache_hits > 0' >/dev/null BENCH_dwmload.json || {
	echo "load-smoke: no cache hits despite cache_hit mix entries" >&2
	exit 1
}

# --- leg 2: labeled exposition is conformant and per-tenant ------------
curl -fsS "$base/metrics" >"$dir/metrics.txt"
"$dir/promlint" -max-series 128 "$dir/metrics.txt" || {
	echo "load-smoke: labeled exposition failed conformance lint" >&2
	exit 1
}
for tenant in alpha beta; do
	grep -q "dwm_serve_tenant_requests{tenant=\"$tenant\"" "$dir/metrics.txt" || {
		echo "load-smoke: no per-tenant series for $tenant on /metrics" >&2
		exit 1
	}
done
grep -q '# {trace_id="' "$dir/metrics.txt" || {
	echo "load-smoke: no exemplar annotations on /metrics" >&2
	exit 1
}

# --- leg 3: client trace IDs appear on server-side spans ---------------
# Stream appends carry no trace ID, and the report omits the field for
# them, so an absent trace_id counts as empty.
tid=$(jq -r '[.slowest[] | select((.trace_id // "") != "")][0].trace_id' BENCH_dwmload.json)
if [ -z "$tid" ] || [ "$tid" = "null" ]; then
	echo "load-smoke: report has no trace IDs among slowest requests" >&2
	exit 1
fi
curl -fsS "$base/debug/events" >"$dir/events.json"
jq -e --arg t "$tid" '[.spans[].trace] | index($t) != null' >/dev/null "$dir/events.json" || {
	echo "load-smoke: client trace ID $tid not found on any server span" >&2
	jq '[.spans[].trace] | unique' "$dir/events.json" >&2
	exit 1
}

# --- leg 4: clean drain ------------------------------------------------
kill -TERM "$pid"
if ! wait "$pid"; then
	echo "load-smoke: daemon exited nonzero after SIGTERM" >&2
	cat "$dir/log" >&2
	exit 1
fi
pid=""
echo "load-smoke: ok (SLO pass, labeled exposition conformant, trace propagation closed end to end)"
