#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it. Run from the
# repository root; every build and run artifact stays under .bench_build:
#
#   bash pipebench/run.sh --workload cold-cells --seed 1 --seconds 10 --trace 0
#   bash pipebench/run.sh --workload all --steady 10
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME: the go command writes telemetry counters under the user
# config directory.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C pipebench -buildvcs=false -o "$out/pipebench" .
exec "$out/pipebench" "$@"
