#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# given arguments, from the checkout root. Everything the build writes (Go
# build cache, temporary files, toolchain telemetry) stays under
# .bench_build/ in the checkout; nothing is downloaded.
#
#   bash perfbench/run.sh --workload trace-s3d --seed 1 --seconds 30 --trace 0
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config" "$build/perfbench"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C perfbench -o "$build/perfbench/perfbench" .
exec "$build/perfbench/perfbench" "$@"
