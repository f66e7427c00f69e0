#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (its own
# module, see go.mod) and runs it from the checkout root. Everything the
# Go toolchain writes — build cache, module cache, telemetry counters,
# the two binaries — goes under .bench_build/ in the checkout.
# Arguments are passed through: --workload --seed --seconds --trace.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C benchmark -o "$build/fpbench" .
exec "$build/fpbench" "$@"
