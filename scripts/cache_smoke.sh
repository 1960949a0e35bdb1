#!/bin/sh
# cache-smoke: end-to-end check of the dwmserved placement cache. Boots
# the daemon, runs one job cold, then requires (a) a duplicate
# submission comes back as a cache hit — cache_hit=true, byte-identical
# result, anneal counters flat; (b) a renumbered-but-isomorphic trace
# also hits, with the same objective value and a valid placement; (c)
# dwm_serve_cache_hits counts both hits and /metrics stays
# promlint-clean; (d) SIGTERM drains cleanly. Run from the repository
# root (the Makefile cache-smoke target).
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
$GO build -o "$dir/promlint" ./cmd/promlint
$GO run ./cmd/tracegen -workload fir -o "$dir/trace.txt"

# The renumbered twin: every item i becomes items-1-i. Same name, same
# item count, same access structure — the same placement problem in a
# different numbering, which the canonical fingerprint must recognize.
awk '
	$1 == "items" { n = $2; print; next }
	$1 == "R" || $1 == "W" { print $1, n - 1 - $2; next }
	{ print }
' "$dir/trace.txt" >"$dir/trace_renum.txt"

jq -Rs '{trace: ., seed: 7, iterations: 20000}' <"$dir/trace.txt" >"$dir/req.json"
jq -Rs '{trace: ., seed: 7, iterations: 20000}' <"$dir/trace_renum.txt" >"$dir/req_renum.json"

"$dir/dwmserved" -addr 127.0.0.1:0 -addrfile "$dir/addr" -workers 2 >"$dir/log" &
pid=$!

i=0
while [ ! -s "$dir/addr" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "cache-smoke: daemon never wrote its address file" >&2
		cat "$dir/log" >&2
		exit 1
	fi
	sleep 0.05
done
base="http://$(cat "$dir/addr")"

submit() {
	curl -fsS -X POST -H 'Content-Type: application/json' \
		--data @"$1" "$base/v1/place" | jq -r .id
}

# poll <job-id> <out-file>: wait for the job, store the full status JSON.
poll() {
	n=0
	while [ "$n" -le 600 ]; do
		n=$((n + 1))
		st=$(curl -fsS "$base/v1/jobs/$1")
		case $(printf '%s' "$st" | jq -r .status) in
		done)
			printf '%s' "$st" >"$2"
			return 0
			;;
		failed)
			echo "cache-smoke: job $1 failed: $st" >&2
			return 1
			;;
		esac
		sleep 0.05
	done
	echo "cache-smoke: job $1 never finished" >&2
	return 1
}

# metric <name>: current value of a /metrics series (0 when absent).
metric() {
	curl -fsS "$base/metrics" | awk -v m="$1" '$1 == m { v = $2 } END { print v + 0 }'
}

# Cold run: must miss and do real annealing work.
id1=$(submit "$dir/req.json")
poll "$id1" "$dir/j1.json"
if [ "$(jq -r '.cache_hit // false' "$dir/j1.json")" = "true" ]; then
	echo "cache-smoke: cold submission reported a cache hit" >&2
	exit 1
fi

chains0=$(metric dwm_core_anneal_chains)
iters0=$(metric dwm_core_anneal_iterations)
if [ "$chains0" -eq 0 ]; then
	echo "cache-smoke: cold run reported no anneal chains" >&2
	exit 1
fi

# Duplicate submission: an exact hit — completed job, cache_hit set,
# byte-identical result, zero additional anneal work.
id2=$(submit "$dir/req.json")
poll "$id2" "$dir/j2.json"
if [ "$(jq -r '.cache_hit // false' "$dir/j2.json")" != "true" ]; then
	echo "cache-smoke: duplicate submission was not served from the cache" >&2
	exit 1
fi
jq -S .result "$dir/j1.json" >"$dir/r1.json"
jq -S .result "$dir/j2.json" >"$dir/r2.json"
if ! cmp -s "$dir/r1.json" "$dir/r2.json"; then
	echo "cache-smoke: cache hit returned a different result:" >&2
	diff -u "$dir/r1.json" "$dir/r2.json" >&2 || true
	exit 1
fi

# Renumbered submission: the canonical fingerprint must see through the
# relabeling — a hit with the same cost and a valid placement.
id3=$(submit "$dir/req_renum.json")
poll "$id3" "$dir/j3.json"
if [ "$(jq -r '.cache_hit // false' "$dir/j3.json")" != "true" ]; then
	echo "cache-smoke: renumbered submission missed the cache" >&2
	exit 1
fi
cost1=$(jq -r .result.cost "$dir/j1.json")
cost3=$(jq -r .result.cost "$dir/j3.json")
if [ "$cost1" != "$cost3" ]; then
	echo "cache-smoke: renumbered hit cost $cost3, original $cost1" >&2
	exit 1
fi
items=$(awk '$1 == "items" { print $2 }' "$dir/trace.txt")
if [ "$(jq -r '.result.placement | length' "$dir/j3.json")" -ne "$items" ]; then
	echo "cache-smoke: renumbered hit placement has wrong length" >&2
	exit 1
fi

# Neither hit may have touched the annealer.
chains1=$(metric dwm_core_anneal_chains)
iters1=$(metric dwm_core_anneal_iterations)
if [ "$chains1" -ne "$chains0" ] || [ "$iters1" -ne "$iters0" ]; then
	echo "cache-smoke: cache hits ran the annealer (chains $chains0->$chains1, iterations $iters0->$iters1)" >&2
	exit 1
fi
hits=$(metric dwm_serve_cache_hits)
if [ "$hits" -ne 2 ]; then
	echo "cache-smoke: dwm_serve_cache_hits = $hits, want 2" >&2
	exit 1
fi

# Warm-start accounting must reconcile: the counter ticks at the point of
# *application* (a candidate adopted as an anneal start), and a warm start
# only ever applies to a miss, so it can never exceed the miss count —
# regardless of whether this particular near-miss adopts its candidate.
jq -Rs '{trace: ., seed: 8, iterations: 20000}' <"$dir/trace.txt" >"$dir/req_warm.json"
id4=$(submit "$dir/req_warm.json")
poll "$id4" "$dir/j4.json"
if [ "$(jq -r '.cache_hit // false' "$dir/j4.json")" = "true" ]; then
	echo "cache-smoke: different-seed submission reported an exact hit" >&2
	exit 1
fi
warm_serve=$(metric dwm_serve_cache_warmstarts)
misses=$(metric dwm_serve_cache_misses)
if [ "$warm_serve" -gt "$misses" ]; then
	echo "cache-smoke: more warm starts than misses: dwm_serve_cache_warmstarts=$warm_serve dwm_serve_cache_misses=$misses" >&2
	exit 1
fi

# The cache series must not break /metrics conformance.
curl -fsS "$base/metrics" >"$dir/metrics.txt"
"$dir/promlint" "$dir/metrics.txt" || {
	echo "cache-smoke: /metrics failed promlint" >&2
	exit 1
}

kill -TERM "$pid"
if ! wait "$pid"; then
	echo "cache-smoke: daemon exited nonzero after SIGTERM" >&2
	cat "$dir/log" >&2
	exit 1
fi
pid=""
echo "cache-smoke: ok (exact + renumbered hits, annealer untouched, clean drain)"
