#!/usr/bin/env bash
# Builds the reader-serving benchmark from the sources of this checkout
# and runs it with the given arguments. Run from the repository root:
#
#   bash readerbench/run.sh --workload fault_2m --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the toolchain's config files all
# stay under .bench_build/ in the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
go build -C readerbench -o "$build/readerbench" . >&2
exec "$build/readerbench" "$@"
