#!/usr/bin/env bash
# Builds the frame-pipeline benchmark from the checkout's sources and
# runs it. Run from the repository root:
#
#   bash framebench/run.sh --workload device-mix --seed 1 --seconds 10 --trace 0
#
# Every build artefact (Go build cache, binary) and every output file
# stays inside the checkout, under .bench_build/ and .bench_out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

(cd "$root/framebench" && go build -o "$build/framebench" .)
exec "$build/framebench" "$@"
