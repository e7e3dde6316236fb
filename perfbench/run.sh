#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in, then runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper_advanced --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache live under $CARGO_TARGET_DIR
# (default .bench_build) inside the tree, so nothing is written outside it.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (simulator sources not found in $(pwd))" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/home"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# The go command keeps its user config and telemetry counters under the
# home directory; point it inside the tree too.
HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
