#!/usr/bin/env bash
# Builds howbench from the howsim checkout in the current directory and
# runs it with the given arguments, e.g.
#
#   bash howbench/run.sh --workload active-farm --seed 1 --seconds 10 --trace 0
#
# Every build output and Go cache goes under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build), so the benchmark reads
# and writes nothing outside the checkout besides the Go toolchain.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/tasks || ! -f howbench/main.go ]]; then
	echo "howbench: run from the root of a howsim checkout" >&2
	exit 2
fi

root=$(pwd -P)
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=vendor GOTOOLCHAIN=local GOTELEMETRY=off

go build -o "$out/howbench" ./howbench
exec "$out/howbench" "$@"
