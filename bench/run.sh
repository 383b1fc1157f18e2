#!/usr/bin/env bash
# Launcher named by BENCHMARK.json. It runs from the root of a checkout,
# keeps every file the toolchain and the benchmark write inside that
# checkout (.bench_build/), builds bench/ from source and hands all
# arguments to the binary.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/bench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "bench/run.sh: run from the root of a distlog checkout (go.mod and bench/go.mod must exist)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
export TMPDIR="$build/tmp"
go build -C "$root/bench" -o "$build/distlog-bench" .
exec "$build/distlog-bench" "$@"
