#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, for example:
#
#   bash benchmark/run.sh --workload rpc-1000 --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files and the binary all stay in
# .bench_build/ under the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C benchmark build -o "$out/amoebabench" .
exec "$out/amoebabench" "$@"
