#!/usr/bin/env bash
# Builds buscond and the benchmark driver from the checkout's sources,
# then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload serve_repeat --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product and scratch file
# (Go build cache, binaries, checkpoint directories, span dumps) lands
# under .bench_build/ in the current directory, so the run touches
# nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/buscond" ./cmd/buscond
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -buscond "$out/buscond" -workdir "$out" "$@"
