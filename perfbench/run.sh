#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload library --seed 1 --seconds 20 --trace 0
# Run it from the repository root. The Go build cache, module cache and
# binary all live in the build directory ($CARGO_TARGET_DIR, default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
