#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#
# Every build artefact, cache and scratch file stays under .bench_build at
# the repository root (or $CARGO_TARGET_DIR when set), so a run touches
# nothing outside its checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
cd "$root"
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)

export GOTOOLCHAIN=local GOFLAGS= GOENV=off
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTMPDIR="$build/go-tmp" TMPDIR="$build/go-tmp"
mkdir -p "$GOTMPDIR"

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -work "$build/work" "$@"
