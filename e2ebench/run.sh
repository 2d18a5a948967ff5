#!/usr/bin/env bash
# Builds hpfqgw and the benchmark from the tree it sits in, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload gw-flat-small --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
go build -o "$out/hpfqgw" ./cmd/hpfqgw
(cd "$root/e2ebench" && go build -o "$out/hpfqbench" .)
exec "$out/hpfqbench" -gw "$out/hpfqgw" -trace-dir "$out/trace" "$@"
