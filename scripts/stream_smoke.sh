#!/bin/sh
# stream-smoke: end-to-end check of the dwmserved streaming surface.
# Boots the daemon and requires (a) two streams with the same spec fed
# the same accesses — one in a single append, one in ragged chunks —
# end with byte-identical status (the chunk-invariance contract over
# HTTP); (b) an oversized trace is rejected at /v1/place with 400
# instead of crashing a worker; (c) the dwm_serve_stream_* series land
# on /metrics and the endpoint stays promlint-clean; (d) SIGTERM drains
# cleanly with a stream still live. Run from the repository root (the
# Makefile stream-smoke target).
. "$(dirname "$0")/lib.sh"

build dwmserved promlint
boot "$dir/addr" -workers 2

post() {
	curl -fsS -X POST -H 'Content-Type: application/json' --data @- "$1"
}

# A fixed pseudo-random access sequence over 32 items, one per line.
# The LCG is seeded in the script so the sequence is identical on every
# run — the smoke pins chunk invariance, not any particular placement.
awk 'BEGIN { s = 12345; for (i = 0; i < 1000; i++) { s = (s * 1103515245 + 12345) % 2147483648; print s % 32 } }' >"$dir/acc.txt"

spec='{"name":"smoke","items":32,"seed":9,"round_every":200,"round_iterations":1200}'

# Stream one: everything in a single append.
one=$(printf '%s' "$spec" | post "$base/v1/streams" | jq -r .id)
jq -s '{accesses: .}' <"$dir/acc.txt" | post "$base/v1/streams/$one/append" >/dev/null
curl -fsS "$base/v1/streams/$one" | jq -S 'del(.id)' >"$dir/one.json"

# Stream two: the same accesses in ragged chunks (sizes sum to 1000).
two=$(printf '%s' "$spec" | post "$base/v1/streams" | jq -r .id)
start=1
for k in 1 137 63 200 99 1 250 149 100; do
	end=$((start + k - 1))
	sed -n "${start},${end}p" "$dir/acc.txt" | jq -s '{accesses: .}' |
		post "$base/v1/streams/$two/append" >/dev/null
	start=$((end + 1))
done
curl -fsS "$base/v1/streams/$two" | jq -S 'del(.id)' >"$dir/two.json"

same "$dir/one.json" "$dir/two.json" "chunked stream diverged from one-shot:"
n=$(jq -r .accesses "$dir/one.json")
[ "$n" -eq 1000 ] || fail "stream lost accesses: $n != 1000"
[ "$(jq -r .rounds "$dir/one.json")" -ne 0 ] || fail "stream ran no improvement rounds"

# Oversized trace: a header at the CSR vertex limit must be rejected at
# submission with 400, not handed to a worker to blow up on.
printf 'dwmtrace 1\nname huge\nitems 2147483648\nR 0\nR 1\n' |
	jq -Rs '{trace: .}' >"$dir/huge.json"
code=$(curl -s -o "$dir/huge_resp" -w '%{http_code}' -X POST \
	-H 'Content-Type: application/json' --data @"$dir/huge.json" "$base/v1/place")
[ "$code" = 400 ] || fail "oversized trace got status $code, want 400:" "$dir/huge_resp"

# want <series> <value> [note]: the /metrics series must read <value>.
want() {
	v=$(metric "$1")
	[ "$v" -eq "$2" ] || fail "$1 = $v${3:-}, want $2"
}

# The stream series must land on /metrics with the right counts.
want dwm_serve_stream_live 2
want dwm_serve_stream_appends 10
want dwm_serve_stream_accesses 2000

# Closing a stream returns its final status and frees the slot.
final=$(curl -fsS -X DELETE "$base/v1/streams/$two")
[ "$(printf '%s' "$final" | jq -r .accesses)" -eq 1000 ] ||
	fail "DELETE returned wrong final status: $final"
want dwm_serve_stream_live 1 " after close"

# The new series must not break /metrics conformance.
lint_metrics || fail "/metrics failed promlint"

# SIGTERM with a stream still live: the daemon must drain and exit 0.
drain
echo "stream-smoke: ok (chunk-invariant streams, oversized trace rejected, clean drain)"
