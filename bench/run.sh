#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash bench/run.sh --workload gzip-transient --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, temporary files, the binary and span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
