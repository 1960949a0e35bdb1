#!/bin/sh
# crash-smoke: the durability guarantee end to end. Boots dwmserved with
# a write-ahead journal, SIGKILLs it mid-anneal, restarts it on the same
# journal, and requires the recovered job to finish with a result
# byte-identical to an uninterrupted control run — determinism makes
# replay cheap: the journal re-derives unfinished work from the request
# instead of re-storing it. Then damages the journal the two ways a
# crash (or a disk) can — torn tail, bit flip — and requires the daemon
# to heal (truncate / quarantine) and still serve the job.
# Run from the repository root (the Makefile crash-smoke target).
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
pid=""
cleanup() {
	if [ -n "$pid" ]; then
		kill -KILL "$pid" 2>/dev/null || true
		wait "$pid" 2>/dev/null || true
	fi
	rm -rf "$dir"
}
trap cleanup EXIT

$GO build -o "$dir/dwmserved" ./cmd/dwmserved
$GO run ./cmd/tracegen -workload fir -o "$dir/trace.txt"

# boot <journal-dir> <addr-file>: start the daemon, wait for the
# address, and set $pid/$base. Cache off so every result is a cold
# anneal — the comparison must not be satisfied by a cache hit.
boot() {
	: >"$2"
	"$dir/dwmserved" -addr 127.0.0.1:0 -addrfile "$2" -workers 1 \
		-cache-entries 0 -journal "$1" >>"$dir/log" 2>&1 &
	pid=$!
	i=0
	while [ ! -s "$2" ]; do
		i=$((i + 1))
		if [ "$i" -gt 200 ]; then
			echo "crash-smoke: daemon never wrote its address file" >&2
			cat "$dir/log" >&2
			exit 1
		fi
		sleep 0.05
	done
	base="http://$(cat "$2")"
}

stop() {
	kill -TERM "$pid" 2>/dev/null || true
	wait "$pid" 2>/dev/null || true
	pid=""
}

submit() {
	curl -fsS -X POST -H 'Content-Type: application/json' \
		--data @"$dir/req.json" "$base/v1/place" | jq -r .id
}

# poll <job-id> <out-file>: wait for the job and store its result with
# sorted keys, so byte comparison is meaningful.
poll() {
	n=0
	while [ "$n" -le 1200 ]; do
		n=$((n + 1))
		st=$(curl -fsS "$base/v1/jobs/$1")
		case $(printf '%s' "$st" | jq -r .status) in
		done)
			printf '%s' "$st" | jq -S .result >"$2"
			return 0
			;;
		failed)
			echo "crash-smoke: job $1 failed: $st" >&2
			return 1
			;;
		esac
		sleep 0.05
	done
	echo "crash-smoke: job $1 never finished" >&2
	return 1
}

# Sizing: the SIGKILL below must land mid-search, so the job has to run
# for a while on this machine. Time a probe anneal, then scale the
# iteration count from the measured proposal rate so the real job runs
# for about two seconds.
probe=400000
jq -Rs --argjson it "$probe" '{trace: ., seed: 7, iterations: $it}' \
	<"$dir/trace.txt" >"$dir/req.json"
boot "$dir/journal-probe" "$dir/addr-probe"
probe_id=$(submit)
poll "$probe_id" "$dir/probe.json"
ms=$(curl -fsS "$base/v1/jobs/$probe_id" | jq -r '.elapsed_ms // 0')
stop
[ "$ms" -ge 1 ] || ms=1
iters=$((probe * 2000 / ms))
[ "$iters" -ge "$probe" ] || iters=$probe
echo "crash-smoke: probe ran $probe proposals in ${ms} ms; sizing the job at $iters"
jq -Rs --argjson it "$iters" '{trace: ., seed: 7, iterations: $it}' \
	<"$dir/trace.txt" >"$dir/req.json"

# Control: an uninterrupted journaled run of the same request.
boot "$dir/journal-control" "$dir/addr-control"
cid=$(submit)
poll "$cid" "$dir/control.json"
stop

# Crash run: submit, wait until the anneal is actually running, then
# SIGKILL — no drain, no flush beyond what the journal already fsynced.
# A job already finished cannot be killed mid-search: that is a sizing
# failure, reported at once rather than after the poll budget.
boot "$dir/journal" "$dir/addr1"
jid=$(submit)
n=0
while :; do
	n=$((n + 1))
	if [ "$n" -gt 200 ]; then
		echo "crash-smoke: job never reached running state" >&2
		exit 1
	fi
	s=$(curl -fsS "$base/v1/jobs/$jid" | jq -r .status)
	case $s in
	running) break ;;
	done | failed)
		echo "crash-smoke: job $jid was already $s before the SIGKILL; $iters iterations are too few to land mid-search" >&2
		exit 1
		;;
	esac
	sleep 0.02
done
kill -KILL "$pid"
wait "$pid" 2>/dev/null || true
pid=""

# Recovery: same journal directory, fresh process. The accepted job must
# come back under its original ID and finish byte-identical to control.
boot "$dir/journal" "$dir/addr2"
grep -q 'records replayed' "$dir/log" || {
	echo "crash-smoke: restart did not report a journal replay" >&2
	cat "$dir/log" >&2
	exit 1
}
poll "$jid" "$dir/recovered.json"
if ! cmp -s "$dir/control.json" "$dir/recovered.json"; then
	echo "crash-smoke: recovered result differs from uninterrupted run:" >&2
	diff -u "$dir/control.json" "$dir/recovered.json" >&2 || true
	exit 1
fi
metrics=$(curl -fsS "$base/metrics")
printf '%s\n' "$metrics" | grep -q '^dwm_serve_wal_replayed_jobs [1-9]' || {
	echo "crash-smoke: /metrics missing dwm_serve_wal_replayed_jobs" >&2
	exit 1
}
stop

# Torn tail: a crash mid-append leaves a partial record at the end of
# the last segment. The next boot must truncate it and serve the
# finished job from its journaled terminal record.
last=$(ls "$dir/journal"/wal-*.seg | sort | tail -1)
printf 'TORNTORNTORN' >>"$last"
boot "$dir/journal" "$dir/addr3"
st=$(curl -fsS "$base/v1/jobs/$jid" | jq -r .status)
if [ "$st" != "done" ]; then
	echo "crash-smoke: job not served after torn-tail repair (status $st)" >&2
	exit 1
fi
stop

# Bit flip: corrupt one byte near the end of the journal — inside the
# terminal record — and boot again. The CRC catches it, the suspect
# region is quarantined, and the job (whose acceptance precedes the
# damage) is re-run from its request to the same bytes as control.
size=$(wc -c <"$last")
dd if=/dev/zero of="$last" bs=1 seek=$((size - 40)) count=1 conv=notrunc 2>/dev/null
boot "$dir/journal" "$dir/addr4"
poll "$jid" "$dir/after-flip.json"
if ! cmp -s "$dir/control.json" "$dir/after-flip.json"; then
	echo "crash-smoke: post-bitflip result differs from uninterrupted run:" >&2
	diff -u "$dir/control.json" "$dir/after-flip.json" >&2 || true
	exit 1
fi
ls "$dir/journal"/*.quarantine >/dev/null 2>&1 || {
	echo "crash-smoke: bit flip left no quarantine file" >&2
	exit 1
}
stop

echo "crash-smoke: ok (SIGKILL recovery byte-identical; torn tail truncated; bit flip quarantined)"
