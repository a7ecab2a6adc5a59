#!/bin/sh
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. BENCHMARK.json names this script as its command: the
# build cache and the binary stay under .bench_build, so a run reads and
# writes nothing outside the checkout (apart from the Go toolchain itself).
#
#   sh bench/run.sh --workload selective --seed 1 --seconds 10 --trace 0
#
# In a directory without the repository's go.mod the build fails and the
# script exits non-zero without printing a result.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" go build -o "$build/twbench" ./bench
exec "$build/twbench" -workdir "$build" "$@"
