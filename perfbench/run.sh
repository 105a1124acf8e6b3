#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, temporary files and the binary go under $CARGO_TARGET_DIR
# (default .bench_build), results under perfbench/results.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath \
  GOMODCACHE=$build/gopath/pkg/mod XDG_CONFIG_HOME=$build/config \
  GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --dir "$here" --out "$here/results" --work "$build/work" "$@"
