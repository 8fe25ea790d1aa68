#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from the checkout it
# is run in and runs it with the arguments given. Everything the build writes
# (compiler cache, binary) goes under .bench_build in the checkout, so a run
# reads and writes nothing outside it. In a directory without the repository's
# go.mod the build fails and so does this script.
set -euo pipefail
root=$PWD
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
go build -o "$root/.bench_build/pastis-benchmark" ./benchmark
exec "$root/.bench_build/pastis-benchmark" "$@"
