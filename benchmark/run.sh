#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from source and
# runs it, reading and writing only inside the checkout: the Go build
# cache, the temporary build directory, the go command's own counter files
# (it keeps them in the user's config directory) and the binary all live
# under .bench_build/ at the checkout root. Arguments pass through:
#
#   bash benchmark/run.sh --workload service --seed 1 --seconds 20 --trace 0
#
# Fails (non-zero, no result line) where the repo's sources are missing,
# because there is nothing to measure.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark: no go.mod and internal/ beside benchmark/: the system under test is not here" >&2
	exit 3
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/flexwan-benchmark" ./benchmark
exec "$build/flexwan-benchmark" "$@"
