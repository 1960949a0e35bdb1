#!/bin/sh
# serve-smoke: end-to-end check of cmd/dwmserved. Boots the daemon on a
# kernel-chosen port, submits the same placement job twice, and requires
# (a) both jobs finish with byte-identical results — the service
# determinism guarantee — (b) a malformed ?wait= is a 400, and (c)
# SIGTERM drains cleanly with exit 0.
# Run from the repository root (the Makefile serve-smoke target).
. "$(dirname "$0")/lib.sh"

build dwmserved
$GO run ./cmd/tracegen -workload fir -o "$dir/trace.txt"
jq -Rs '{trace: ., seed: 7, iterations: 20000}' <"$dir/trace.txt" >"$dir/req.json"

boot "$dir/addr" -workers 2
curl -fsS "$base/healthz" >/dev/null
curl -fsS "$base/readyz" >/dev/null

# Results with sorted keys, so byte comparison is meaningful.
id1=$(submit "$dir/req.json")
id2=$(submit "$dir/req.json")
wait_job "$id1" "$dir/j1.json"
wait_job "$id2" "$dir/j2.json"
jq -S .result "$dir/j1.json" >"$dir/r1.json"
jq -S .result "$dir/j2.json" >"$dir/r2.json"
same "$dir/r1.json" "$dir/r2.json" "identical submissions returned different results:"
[ "$(jq -r '.placement | length' "$dir/r1.json")" -ne 0 ] || fail "empty placement in result"

code=$(curl -sS -o /dev/null -w '%{http_code}' "$base/v1/jobs/$id1?wait=bogus")
[ "$code" = 400 ] || fail "?wait=bogus answered $code, want 400"

[ "$(metric dwm_serve_jobs_done)" -ge 1 ] || fail "/metrics missing dwm_serve_jobs_done"

drain
echo "serve-smoke: ok (deterministic results, clean drain)"
