#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload flashcrowd --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build cache, the binary, checkpoint
# scratch files and traces all stay under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) inside the repository.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/config"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export BENCH_OUT=$build

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
