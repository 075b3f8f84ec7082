#!/usr/bin/env bash
# Builds stmkvd and the benchmark from this checkout, then runs one
# benchmark pass. Run from the repository root:
#
#   bash stmkvbench/run.sh --workload read-mostly --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, server data directories and result
# records all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/stmkvd" ]]; then
	echo "stmkvbench: run from the repository root (no go.mod or cmd/stmkvd here)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

go build -o "$build/bin/stmkvd" ./cmd/stmkvd
(cd "$root/stmkvbench" && go build -o "$build/bin/stmkvbench" .)
exec "$build/bin/stmkvbench" -stmkvd "$build/bin/stmkvd" -work "$build/work" -results "$build/results" "$@"
