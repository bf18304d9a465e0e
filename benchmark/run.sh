#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the arguments given (see README.md). Everything the build
# and the run write — Go's caches, the binary, logs, checkpoints, traces —
# stays under .bench_build in the checkout's root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
(
	cd "$root/benchmark"
	export HOME="$build/home" GOPATH="$build/gopath" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
	export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
	go build -o "$build/bin/rodain-benchmark" .
)
cd "$root"
exec "$build/bin/rodain-benchmark" "$@"
