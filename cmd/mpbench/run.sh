#!/usr/bin/env bash
# Builds mpbench from the checkout's source and runs it with the given
# flags, from the checkout root. The Go build cache, Go's own config files
# and the binary stay under .bench_build/ in the checkout.
#
#   bash cmd/mpbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
(cd "$root/cmd/mpbench" && go build -o "$build/mpbench" .)

cd "$root"
exec "$build/mpbench" "$@"
