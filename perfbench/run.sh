#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it:
#   bash perfbench/run.sh --workload table1-exact --seed 1 --seconds 10 --trace 0
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
