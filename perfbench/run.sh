#!/usr/bin/env bash
# run.sh — build byproxyd, bydbd and the benchmark program from this
# checkout, then run one benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hot-cache --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binaries,
# daemon logs, state directories, span dumps) stays under
# .bench_build/ in the checkout. The last line of standard output is
# the JSON result; build chatter goes to standard error.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

# Keep the toolchain's caches, temporary files and telemetry inside the
# checkout, and never let it reach for a network toolchain or module
# proxy.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/" ./cmd/byproxyd ./cmd/bydbd
go build -C perfbench -o "$out/bin/perfbench" .

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
