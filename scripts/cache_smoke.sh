#!/bin/sh
# cache-smoke: end-to-end check of the dwmserved placement cache. Boots
# the daemon, runs one job cold, then requires (a) a duplicate
# submission comes back as a cache hit — cache_hit=true, byte-identical
# result, anneal counters flat; (b) a renumbered-but-isomorphic trace
# also hits, with the same objective value and a valid placement; (c)
# dwm_serve_cache_hits counts both hits and /metrics stays
# promlint-clean; (d) SIGTERM drains cleanly. Run from the repository
# root (the Makefile cache-smoke target).
. "$(dirname "$0")/lib.sh"

build dwmserved promlint
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

boot "$dir/addr" -workers 2

# Cold run: must miss and do real annealing work.
id1=$(submit "$dir/req.json")
wait_job "$id1" "$dir/j1.json"
[ "$(jq -r '.cache_hit // false' "$dir/j1.json")" != "true" ] || fail "cold submission reported a cache hit"

chains0=$(metric dwm_core_anneal_chains)
iters0=$(metric dwm_core_anneal_iterations)
[ "$chains0" -ne 0 ] || fail "cold run reported no anneal chains"

# Duplicate submission: an exact hit — completed job, cache_hit set,
# byte-identical result, zero additional anneal work.
id2=$(submit "$dir/req.json")
wait_job "$id2" "$dir/j2.json"
[ "$(jq -r '.cache_hit // false' "$dir/j2.json")" = "true" ] || fail "duplicate submission was not served from the cache"
jq -S .result "$dir/j1.json" >"$dir/r1.json"
jq -S .result "$dir/j2.json" >"$dir/r2.json"
same "$dir/r1.json" "$dir/r2.json" "cache hit returned a different result:"

# Renumbered submission: the canonical fingerprint must see through the
# relabeling — a hit with the same cost and a valid placement.
id3=$(submit "$dir/req_renum.json")
wait_job "$id3" "$dir/j3.json"
[ "$(jq -r '.cache_hit // false' "$dir/j3.json")" = "true" ] || fail "renumbered submission missed the cache"
cost1=$(jq -r .result.cost "$dir/j1.json")
cost3=$(jq -r .result.cost "$dir/j3.json")
[ "$cost1" = "$cost3" ] || fail "renumbered hit cost $cost3, original $cost1"
items=$(awk '$1 == "items" { print $2 }' "$dir/trace.txt")
[ "$(jq -r '.result.placement | length' "$dir/j3.json")" -eq "$items" ] ||
	fail "renumbered hit placement has wrong length"

# Neither hit may have touched the annealer.
chains1=$(metric dwm_core_anneal_chains)
iters1=$(metric dwm_core_anneal_iterations)
if [ "$chains1" -ne "$chains0" ] || [ "$iters1" -ne "$iters0" ]; then
	fail "cache hits ran the annealer (chains $chains0->$chains1, iterations $iters0->$iters1)"
fi
hits=$(metric dwm_serve_cache_hits)
[ "$hits" -eq 2 ] || fail "dwm_serve_cache_hits = $hits, want 2"

# Warm-start accounting must reconcile: the counter ticks at the point of
# *application* (a candidate adopted as an anneal start), and a warm start
# only ever applies to a miss, so it can never exceed the miss count —
# regardless of whether this particular near-miss adopts its candidate.
jq -Rs '{trace: ., seed: 8, iterations: 20000}' <"$dir/trace.txt" >"$dir/req_warm.json"
id4=$(submit "$dir/req_warm.json")
wait_job "$id4" "$dir/j4.json"
[ "$(jq -r '.cache_hit // false' "$dir/j4.json")" != "true" ] || fail "different-seed submission reported an exact hit"
warm_serve=$(metric dwm_serve_cache_warmstarts)
misses=$(metric dwm_serve_cache_misses)
[ "$warm_serve" -le "$misses" ] ||
	fail "more warm starts than misses: dwm_serve_cache_warmstarts=$warm_serve dwm_serve_cache_misses=$misses"

# The cache series must not break /metrics conformance.
lint_metrics || fail "/metrics failed promlint"

drain
echo "cache-smoke: ok (exact + renumbered hits, annealer untouched, clean drain)"
