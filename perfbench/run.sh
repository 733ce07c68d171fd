#!/usr/bin/env bash
# Builds the benchmark from source into the build directory and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload lebench --seed 1 --seconds 30 --trace 0
#
# The build directory is $CARGO_TARGET_DIR when set, else .bench_build; the
# Go build cache, the binary, and traced runs' span and profile files all
# stay inside it.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/harness" ]]; then
	echo "perfbench: no simulator sources in $root; run from the repository root" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build = /* ]] || build="$root/$build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOENV=off GOTELEMETRY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" "$@"
