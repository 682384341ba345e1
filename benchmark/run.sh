#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file it
# writes (the go build cache included) under .bench_build/ in the
# checkout. Arguments go to the benchmark unchanged:
#
#   bash benchmark/run.sh --workload sim-hold --seed 1 --seconds 20 --trace 0
#
# It needs the whole repository: the benchmark is its own module
# (benchmark/go.mod) that replaces module repro with the directory above.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/benchmark" .)
cd "$root"
exec "$out/benchmark" "$@"
