#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark from the checkout it
# is started in and run it with the driver's arguments. Everything Go
# writes while building (its cache, its temporary files) and everything
# the benchmark leaves behind goes under .bench_build/ in that checkout,
# which .gitignore names.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local

go build -o "$build/bin/bench" ./bench
exec "$build/bin/bench" "$@"
