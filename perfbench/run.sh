#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ of the checkout it is run
# from, with the Go build cache there too, then runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
