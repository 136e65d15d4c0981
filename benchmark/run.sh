#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of
# the checkout (Go's build cache and temp files stay there too) and
# runs it from that root with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/pretzel-benchmark" .)
cd "$root"
exec "$build/pretzel-benchmark" "$@"
