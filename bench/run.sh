#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds voxserve (the program under test)
# and voxload (the benchmark) from source into .bench_build/ at the root of
# the checkout — Go's build cache and temporary files included, so nothing is
# written outside the checkout — then hands the driver's arguments to voxload.
# In a directory that holds only the benchmark's own files there is no
# voxserve to build, and the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$root" && go build -o "$build/voxserve" ./cmd/voxserve)
(cd "$root/bench" && go build -o "$build/voxload" ./voxload)
cd "$root"
exec "$build/voxload" -voxserve "$build/voxserve" "$@"
