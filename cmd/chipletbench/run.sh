#!/usr/bin/env bash
# Builds chipletbench and runs it against the checkout this script lives in:
#
#   bash cmd/chipletbench/run.sh --workload solve --seed 1 --seconds 25 --trace 0
#
# Binaries and the Go build cache stay under .bench_build/ at the root of the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/cmd/chipletbench" build -o "$out/chipletbench" .
exec "$out/chipletbench" -root "$root" "$@"
