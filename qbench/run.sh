#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and runs
# it. Run from the repository root:
#
#   bash qbench/run.sh --workload serve-warm --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=mod XDG_CONFIG_HOME="$out/config"
go -C "$root/qbench" build -o "$out/qbench" .
exec "$out/qbench" "$@"
