#!/usr/bin/env bash
# Builds the benchmark from the checkout this script lives in and runs it,
# passing every argument through (see bench/README.md):
#
#   bash bench/run.sh --workload catalogue-cold --seed 1 --seconds 15 --trace 0
#
# The Go build cache, module cache and toolchain config all live under
# .bench_build/ in the checkout, and nothing is downloaded.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/bench" build -o "$build/t3bench" .
exec "$build/t3bench" -root "$root" "$@"
