#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on to the benchmark, e.g.
#   bash perfbench/run.sh --workload ie-live --seed 1 --seconds 10 --trace 0
# The Go build cache, temporary files, the binary and the benchmark's own
# outputs all stay under .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench.bin" .)
exec "$out/perfbench.bin" "$@"
