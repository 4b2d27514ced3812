#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload ring-soak --seed 1 --seconds 32 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files,
# GOPATH, Go config and the binary stay under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" "$@"
