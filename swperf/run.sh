#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash swperf/run.sh --workload lookup-wire --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ at
# the root of the checkout: the Go build cache, the binary and the
# spans of traced runs.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build/swperf"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
(cd "$here" && go build -o "$build/swperf" .)
exec "$build/swperf" --out "$build" "$@"
