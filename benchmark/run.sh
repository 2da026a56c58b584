#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source into the checkout, then run one pass of one workload.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Everything it writes stays inside the checkout: the Go build cache and
# the binary under .bench_build/, results and traces under .bench_out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" -out .bench_out "$@"
