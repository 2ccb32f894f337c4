#!/bin/sh
# Entry point of BENCHMARK.json: builds the harness from source and runs
# it, keeping the build cache, the binary and every temporary file inside
# the checkout (.bench_build/), which is all the driver lets a run touch.
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
