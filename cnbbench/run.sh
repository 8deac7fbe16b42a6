#!/usr/bin/env bash
# Builds cnbd and the benchmark from the tree, then runs one benchmark
# run. Run it from the repository root:
#
#   bash cnbbench/run.sh --workload warm_query --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory (Go build cache included), and it needs no network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/spans"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go build -o "$out/bin/cnbd" ./cmd/cnbd
(cd cnbbench && go build -o "$out/bin/cnbbench" .)

exec "$out/bin/cnbbench" -cnbd "$out/bin/cnbd" -out "$out/spans" "$@"
