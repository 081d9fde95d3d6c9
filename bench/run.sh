#!/usr/bin/env bash
# Builds the fluxperf benchmark from source and runs it from the
# repository root; every argument passes through (see bench/README.md):
#
#   bash bench/run.sh --workload matrix-cold --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the repository, so a run writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd "$root/bench" && go build -o "$out/fluxperf" .)
cd "$root"
exec "$out/fluxperf" "$@"
