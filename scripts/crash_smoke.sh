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
. "$(dirname "$0")/lib.sh"

build dwmserved
$GO run ./cmd/tracegen -workload fir -o "$dir/trace.txt"

# boot_journal <addrfile> <journal-dir>: boot on the journal. Cache off
# so every result is a cold anneal — the comparison must not be
# satisfied by a cache hit.
boot_journal() {
	boot "$1" -workers 1 -cache-entries 0 -journal "$2"
}

# Sizing: the SIGKILL below must land mid-search, so the job has to run
# for a while on this machine. Time a probe anneal, then scale the
# iteration count from the measured proposal rate so the real job runs
# for about two seconds.
probe=400000
jq -Rs --argjson it "$probe" '{trace: ., seed: 7, iterations: $it}' \
	<"$dir/trace.txt" >"$dir/req.json"
boot_journal "$dir/addr-probe" "$dir/journal-probe"
wait_job "$(submit "$dir/req.json")" "$dir/probe.json"
ms=$(jq -r '.elapsed_ms // 0' "$dir/probe.json")
drain
[ "$ms" -ge 1 ] || ms=1
iters=$((probe * 2000 / ms))
[ "$iters" -ge "$probe" ] || iters=$probe
echo "crash-smoke: probe ran $probe proposals in ${ms} ms; sizing the job at $iters"
jq -Rs --argjson it "$iters" '{trace: ., seed: 7, iterations: $it}' \
	<"$dir/trace.txt" >"$dir/req.json"

# Control: an uninterrupted journaled run of the same request.
boot_journal "$dir/addr-control" "$dir/journal-control"
wait_job "$(submit "$dir/req.json")" "$dir/control-status.json"
# Sorted keys, so byte comparison is meaningful.
jq -S .result "$dir/control-status.json" >"$dir/control.json"
drain

# Crash run: submit, wait until the anneal is actually running, then
# SIGKILL — no drain, no flush beyond what the journal already fsynced.
# A job already finished cannot be killed mid-search: that is a sizing
# failure, reported at once rather than after the wait budget. A
# ?wait= GET only returns early on a finished job, so this one wait
# re-reads the status every 20 ms instead.
boot_journal "$dir/addr1" "$dir/journal"
jid=$(submit "$dir/req.json")
n=0
while :; do
	n=$((n + 1))
	[ "$n" -le 200 ] || fail "job never reached running state"
	s=$(curl -fsS "$base/v1/jobs/$jid" | jq -r .status)
	case $s in
	running) break ;;
	done | failed)
		fail "job $jid was already $s before the SIGKILL; $iters iterations are too few to land mid-search"
		;;
	esac
	sleep 0.02
done
kill -KILL "$pid"
wait "$pid" 2>/dev/null || true
pid=""

# Recovery: same journal directory, fresh process. The accepted job must
# come back under its original ID and finish byte-identical to control.
# $dir/log holds every boot's output, so only the last replay line
# counts, and it must report records.
boot_journal "$dir/addr2" "$dir/journal"
grep 'records replayed' "$dir/log" | tail -1 | grep -qv '(0 records replayed' ||
	fail "restart did not report a journal replay" "$dir/log"
wait_job "$jid" "$dir/recovered-status.json"
jq -S .result "$dir/recovered-status.json" >"$dir/recovered.json"
same "$dir/control.json" "$dir/recovered.json" "recovered result differs from uninterrupted run:"
[ "$(metric dwm_serve_wal_replayed_jobs)" -ge 1 ] || fail "/metrics missing dwm_serve_wal_replayed_jobs"
drain

# Torn tail: a crash mid-append leaves a partial record at the end of
# the last segment. The next boot must truncate it and serve the
# finished job from its journaled terminal record.
last=$(ls "$dir/journal"/wal-*.seg | sort | tail -1)
printf 'TORNTORNTORN' >>"$last"
boot_journal "$dir/addr3" "$dir/journal"
st=$(curl -fsS "$base/v1/jobs/$jid" | jq -r .status)
[ "$st" = "done" ] || fail "job not served after torn-tail repair (status $st)"
drain

# Bit flip: corrupt one byte near the end of the journal — inside the
# terminal record — and boot again. The CRC catches it, the suspect
# region is quarantined, and the job (whose acceptance precedes the
# damage) is re-run from its request to the same bytes as control.
size=$(wc -c <"$last")
dd if=/dev/zero of="$last" bs=1 seek=$((size - 40)) count=1 conv=notrunc 2>/dev/null
boot_journal "$dir/addr4" "$dir/journal"
wait_job "$jid" "$dir/after-flip-status.json"
jq -S .result "$dir/after-flip-status.json" >"$dir/after-flip.json"
same "$dir/control.json" "$dir/after-flip.json" "post-bitflip result differs from uninterrupted run:"
ls "$dir/journal"/*.quarantine >/dev/null 2>&1 || fail "bit flip left no quarantine file"
drain

echo "crash-smoke: ok (SIGKILL recovery byte-identical; torn tail truncated; bit flip quarantined)"
