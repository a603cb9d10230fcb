#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash conduitbench/run.sh --workload serve-open --seed 1 --seconds 20 --trace 0
#
# Every build product and Go cache lands under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory, so nothing is written elsewhere.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$out/conduitbench" .) >&2
exec "$out/conduitbench" "$@"
