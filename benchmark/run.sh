#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# arguments given. Everything the build writes (the Go build cache, its
# temporary files, the binary) stays under .bench_build in the checkout; the
# benchmark's own output goes to benchmark/out unless -out says otherwise.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/hfetch-benchmark" .)
cd "$root"
exec "$build/hfetch-benchmark" "$@"
