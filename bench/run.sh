#!/usr/bin/env bash
# Builds the benchmark inside the checkout (binary and Go build cache under
# .bench_build/) and runs it from the repository root with the given flags.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/bench" && go build -o "$build/ppdbscan-bench" .)
cd "$root"
exec "$build/ppdbscan-bench" "$@"
