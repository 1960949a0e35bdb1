#!/bin/sh
# serve-smoke: end-to-end check of cmd/dwmserved. Boots the daemon on a
# kernel-chosen port, submits the same placement job twice, and requires
# (a) both jobs finish with byte-identical results — the service
# determinism guarantee — (b) a malformed ?wait= is a 400, and (c)
# SIGTERM drains cleanly with exit 0.
# Run from the repository root (the Makefile serve-smoke target).
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
$GO run ./cmd/tracegen -workload fir -o "$dir/trace.txt"
jq -Rs '{trace: ., seed: 7, iterations: 20000}' <"$dir/trace.txt" >"$dir/req.json"

"$dir/dwmserved" -addr 127.0.0.1:0 -addrfile "$dir/addr" -workers 2 >"$dir/log" &
pid=$!

i=0
while [ ! -s "$dir/addr" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "serve-smoke: daemon never wrote its address file" >&2
		cat "$dir/log" >&2
		exit 1
	fi
	sleep 0.05
done
base="http://$(cat "$dir/addr")"

curl -fsS "$base/healthz" >/dev/null
curl -fsS "$base/readyz" >/dev/null

submit() {
	curl -fsS -X POST -H 'Content-Type: application/json' \
		--data @"$dir/req.json" "$base/v1/place" | jq -r .id
}

# poll <job-id> <out-file>: wait for the job and store its result with
# sorted keys, so byte comparison is meaningful. Each GET long-polls for
# the time left of a 30 s budget, so one call per job normally suffices
# and a job that never finishes fails the smoke after about 30 s.
poll() {
	end=$(($(date +%s) + 30))
	while left=$((end - $(date +%s))) && [ "$left" -gt 0 ]; do
		st=$(curl -fsS "$base/v1/jobs/$1?wait=${left}s")
		case $(printf '%s' "$st" | jq -r .status) in
		done)
			printf '%s' "$st" | jq -S .result >"$2"
			return 0
			;;
		failed)
			echo "serve-smoke: job $1 failed: $st" >&2
			return 1
			;;
		esac
	done
	echo "serve-smoke: job $1 never finished" >&2
	return 1
}

id1=$(submit)
id2=$(submit)
poll "$id1" "$dir/r1.json"
poll "$id2" "$dir/r2.json"
if ! cmp -s "$dir/r1.json" "$dir/r2.json"; then
	echo "serve-smoke: identical submissions returned different results:" >&2
	diff -u "$dir/r1.json" "$dir/r2.json" >&2 || true
	exit 1
fi
if [ "$(jq -r '.placement | length' "$dir/r1.json")" -eq 0 ]; then
	echo "serve-smoke: empty placement in result" >&2
	exit 1
fi

code=$(curl -sS -o /dev/null -w '%{http_code}' "$base/v1/jobs/$id1?wait=bogus")
if [ "$code" != 400 ]; then
	echo "serve-smoke: ?wait=bogus answered $code, want 400" >&2
	exit 1
fi

curl -fsS "$base/metrics" | grep -q '^dwm_serve_jobs_done' || {
	echo "serve-smoke: /metrics missing dwm_serve_jobs_done" >&2
	exit 1
}

kill -TERM "$pid"
if ! wait "$pid"; then
	echo "serve-smoke: daemon exited nonzero after SIGTERM" >&2
	cat "$dir/log" >&2
	exit 1
fi
pid=""
echo "serve-smoke: ok (deterministic results, clean drain)"
