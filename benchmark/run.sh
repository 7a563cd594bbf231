#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds ./benchmark from source and
# runs it with the arguments given. Everything the build writes (binary, Go
# build cache, the compiler's scratch files) stays under .bench_build/ in
# the checkout, so a run reads and writes nothing outside it.
# `go run ./benchmark` is the same program for interactive use.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/p4db-benchmark" ./benchmark
exec "$out/p4db-benchmark" "$@"
