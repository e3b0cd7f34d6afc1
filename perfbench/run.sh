#!/usr/bin/env bash
# Builds the benchmark program from this checkout's source and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-coalesced --seed 1 --seconds 50 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root; the sources to build are missing" >&2
	exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
mkdir -p "$target/perfbench/tmp"
export GOCACHE="$target/perfbench/gocache"
export GOPATH="$target/perfbench/gopath"
export GOTMPDIR="$target/perfbench/tmp"
export TMPDIR="$target/perfbench/tmp"
export XDG_CONFIG_HOME="$target/perfbench/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
bin="$target/perfbench/perfbench"
go -C perfbench build -o "$bin" .
exec "$bin" --out "$target/perfbench" "$@"
