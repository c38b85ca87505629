#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload tune --seed 1 --seconds 15 --trace 0
#
# Everything it writes (the Go build cache, the binary and the
# workloads' journals) goes under .bench_build/ in the current
# directory. Each run leaves its journals in a perfbench-* directory
# there; the next run removes them before it starts, so at most one
# run's files are kept.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
rm -rf "$out"/perfbench-*
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
