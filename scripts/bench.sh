#!/usr/bin/env sh
# bench.sh - record chipletd's end-to-end ledger as a numbered JSON artifact.
#
# Usage: scripts/bench.sh [runs]    # runs defaults to 5 seeds
#
# Runs cmd/chipletbench in ledger mode: every workload (solve, search,
# sweep, mixed) for seeds 1..runs, untraced for the end-to-end metrics and
# traced for the per-layer self-time shares, each number the median of the
# runs with its min/max. The ledger goes to BENCH_<n>.json at the repository
# root, where n counts the BENCH_*.json artifacts already present, so
# successive runs line up as a series. Judge one ledger against an earlier
# one with
#
#   go run -C cmd/chipletbench . -compare BENCH_<m>.json -ledger BENCH_<n>.json
#
# which flags only changes outside the recorded spread.
set -eu

cd "$(dirname "$0")/.."

n=0
for f in BENCH_*.json; do
    [ -e "$f" ] && n=$((n + 1))
done

exec bash cmd/chipletbench/run.sh -runs "${1:-5}" -out "BENCH_${n}.json"
