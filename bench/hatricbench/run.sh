#!/usr/bin/env bash
# Builds hatricbench from the checkout this script sits in and runs it with
# the given flags, for example:
#
#   bash bench/hatricbench/run.sh --workload resident --seed 1 --seconds 15 --trace 0
#   bash bench/hatricbench/run.sh -seed 1 -out results.json
#
# The build cache, the binary and the profiler's temporary files all live
# under .bench_build/ at the root of the checkout, and the Go toolchain is
# kept offline: no module or toolchain downloads.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

(cd "$here" && go build -o "$build/hatricbench" .)
exec "$build/hatricbench" "$@"
