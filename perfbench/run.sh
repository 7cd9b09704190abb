#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-light --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write — the Go build cache, the
# binary, spill files, results and spans — stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= TMPDIR="$build/tmp"
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -out "$build" "$@"
