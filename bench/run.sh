#!/usr/bin/env bash
# The BENCHMARK.json command: build the benchmark from source inside the
# checkout (build cache included, so nothing outside the checkout is written)
# and hand it the driver's flags. Run from the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/smart-e2e-bench" .)
cd "$root"
exec "$build/smart-e2e-bench" "$@"
