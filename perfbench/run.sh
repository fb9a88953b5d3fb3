#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload sim-keepalive --seed 1 --seconds 36 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the binary, Go's build cache and the traced runs' span
# files. The build output goes to stderr, so the result JSON stays the
# last line of stdout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off
export GOPROXY=off
export GOTELEMETRY=off

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build/spans" "$@"
