#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash bench/run.sh --workload query-point --seed 42 --seconds 15 --trace 0
#
# It builds the benchmark from source into .bench_build/ (Go's build cache
# and temporary files are kept there too, so nothing is written outside the
# checkout) and then runs it with the arguments given.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
go build -C "$root/bench" -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"
