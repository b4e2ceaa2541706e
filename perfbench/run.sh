#!/usr/bin/env bash
# Builds the serving benchmark and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload warm-select --seed 1 --seconds 30 --trace 0
#
# Every build output (Go build cache, binaries, per-run temp directories)
# stays under .bench_build in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/apiserver || ! -d cmd/gateway || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
