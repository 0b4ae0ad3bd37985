#!/usr/bin/env bash
# Builds and runs the memexplore benchmark from the repository root:
#
#   bash benchsuite/run.sh --workload explore-http --seed 1 --seconds 20 --trace 0
#
# Every build output, cache and temporary file stays under .bench_build/
# in the working directory; the Go toolchain is kept local and offline.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command's telemetry counters live under the user config dir.
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/benchsuite" && go build -o "$build/bin/benchsuite" .)
exec "$build/bin/benchsuite" "$@"
