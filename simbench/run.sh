#!/bin/sh
# Builds the simulator benchmark from source and runs it with the
# given arguments. Run from the repository root:
#
#   sh simbench/run.sh --workload apps --seed 1 --seconds 10 --trace 0
#
# The Go build and module caches, temporary build files and the binary
# all live under .bench_build/ in the current directory, so the
# benchmark writes nothing outside the checkout. A failed build exits
# nonzero without printing a result.
set -eu

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/simbench" && go build -o "$out/simbench" .)
exec "$out/simbench" "$@"
