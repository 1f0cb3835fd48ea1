#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload batch --seed 1 --seconds 10 --trace 0
#
# The binary and the Go build cache live in .bench_build, so nothing is
# written outside the checkout.
set -euo pipefail

root=$(pwd)
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gomod" "$build/tmp"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOENV=off GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
