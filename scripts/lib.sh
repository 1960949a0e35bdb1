# lib.sh: the scaffolding the dwmserved smokes (scripts/*_smoke.sh)
# share. A smoke sources it first, and is run from the repository root:
#
#	. "$(dirname "$0")/lib.sh"
#
# Sourcing sets -eu, names the smoke after its script (serve_smoke.sh is
# serve-smoke, the prefix of every message), and makes the scratch
# directory $dir, removed on exit together with any daemon still running
# (SIGKILL). The helpers below that talk to the daemon use $base, which
# boot sets.
set -eu

GO=${GO:-go}
name=$(basename "$0" .sh | tr _ -)
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

# fail <message> [file…]: print "<smoke>: <message>", then each file, on
# stderr, and exit 1.
fail() {
	echo "$name: $1" >&2
	shift
	[ $# -eq 0 ] || cat "$@" >&2
	exit 1
}

# same <file> <file> <message>: fail with the message and a diff unless
# the two files are byte-identical.
same() {
	cmp -s "$1" "$2" && return
	echo "$name: $3" >&2
	diff -u "$1" "$2" >&2 || true
	exit 1
}

# build <command>…: build each ./cmd/<command> into $dir/<command>.
build() {
	for c in "$@"; do
		$GO build -o "$dir/$c" "./cmd/$c"
	done
}

# boot <addrfile> [dwmserved flags…]: start $dir/dwmserved on a
# kernel-chosen port, appending its stdout and stderr to $dir/log, wait
# up to 10 s for it to write its address to <addrfile>, and set $pid and
# $base.
boot() {
	addrfile=$1
	shift
	"$dir/dwmserved" -addr 127.0.0.1:0 -addrfile "$addrfile" "$@" >>"$dir/log" 2>&1 &
	pid=$!
	i=0
	while [ ! -s "$addrfile" ]; do
		i=$((i + 1))
		[ "$i" -le 200 ] || fail "daemon never wrote its address file" "$dir/log"
		sleep 0.05
	done
	base="http://$(cat "$addrfile")"
}

# submit <body-file>: POST the placement request and print its job ID.
submit() {
	curl -fsS -X POST -H 'Content-Type: application/json' \
		--data @"$1" "$base/v1/place" | jq -r .id
}

# wait_job <id> <out-file>: wait for the job to finish and write its
# full status JSON to <out-file>. Each GET long-polls (?wait=) for what
# is left of a 60 s budget, so one call normally suffices; a failed job,
# or one still unfinished when the budget runs out, fails the smoke.
wait_job() {
	end=$(($(date +%s) + 60))
	while left=$((end - $(date +%s))) && [ "$left" -gt 0 ]; do
		curl -fsS "$base/v1/jobs/$1?wait=${left}s" >"$2"
		case $(jq -r .status "$2") in
		done) return ;;
		failed) fail "job $1 failed: $(cat "$2")" ;;
		esac
	done
	fail "job $1 never finished"
}

# metric <name>: current value of a /metrics series (0 when absent).
metric() {
	curl -fsS "$base/metrics" | awk -v m="$1" '$1 == m { v = $2 } END { print v + 0 }'
}

# lint_metrics [promlint flags…]: scrape /metrics into $dir/metrics.txt
# and return the status of $dir/promlint on it. Callers write
# `lint_metrics || fail …`, which switches -e off in here, so a failed
# scrape fails explicitly.
lint_metrics() {
	curl -fsS "$base/metrics" >"$dir/metrics.txt" || fail "GET /metrics failed"
	"$dir/promlint" "$@" "$dir/metrics.txt"
}

# drain: SIGTERM the daemon and require exit 0; print its log if not.
drain() {
	kill -TERM "$pid"
	wait "$pid" || fail "daemon exited nonzero after SIGTERM" "$dir/log"
	pid=""
}
