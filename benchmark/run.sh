#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash benchmark/run.sh --workload serve-hit --seed 3 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, journal directories) stays under .bench_build/
# in the current directory. The build needs the parent module (../go.mod),
# so outside a full checkout it fails and the script exits nonzero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=""
export GOPROXY=off
export GOWORK=off
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/dwmbenchmark" .) >&2
exec "$out/dwmbenchmark" -scratch "$out" "$@"
