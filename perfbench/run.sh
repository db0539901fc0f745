#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload paper-tcp --seed 1 --seconds 10 --trace 0
#
# Build caches, the binary, WAL directories and span files all live
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
(cd "$src" && go build -ldflags "-X main.gitCommit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
