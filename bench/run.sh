#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash bench/run.sh --workload serve-churn --seed 1 --seconds 12 --trace 0
#
# Run from the root of a checkout. Everything the build and the run write
# (the Go build cache, the binary, span files) stays under .bench_build/ in
# that checkout. The last line of standard output is the result object.
set -euo pipefail

build=$PWD/.bench_build
mkdir -p "$build/tmp"

# Keep the Go tool's own files inside the checkout too.
export GOCACHE=$build/gocache
export GOTMPDIR=$build/tmp
export GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOWORK=off

# The benchmark is a module of its own that replaces delaycalc with the
# checkout around it; without that source the build fails, and so does this.
go build -C bench -o "$build/delaybench" . >&2
exec "$build/delaybench" "$@"
