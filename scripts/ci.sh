#!/usr/bin/env sh
# ci.sh - the repository's full verification gate.
#
# Usage: scripts/ci.sh [-short]
#   -short   pass -short to the race run (skips the slowest tests)
#
# Steps: gofmt (fails on any unformatted file), go vet, go build,
# the physics verification fast gate (chipletverify -quick: analytic
# oracles, randomized invariants, mutation smoke — see internal/verify),
# the spatial-surrogate drift gate (chipletverify -run drift: calibration
# bound re-measured at fresh non-DoE points, golden-corpus winner parity),
# go test -race with a coverage profile, the coverage gate (total must not
# fall below the recorded baseline; skipped under -short because -short
# skips tests), the fuzz smoke (a few seconds per target; skipped under
# -short), the chipletd daemon smoke test (real binary over HTTP:
# traced solve, /healthz build info, /metrics histograms, /debug/solves,
# clean SIGTERM drain), the two-node sharded smoke test (mutual -peers
# daemons plus a standalone reference: bit-identical solve and search
# answers, at least one memo peer-fetch hit), a smoke run of the chipletd
# cache benchmarks,
# the tracer-overhead guard (BenchmarkSolveTraced vs BenchmarkSolveUntraced),
# the export-overhead guard (BenchmarkSolveTracedExporting vs untraced, plus
# the disabled-exporter zero-allocation test),
# the thermal concurrent-solve stress (many goroutines on one model, every
# field bit-identical to the sequential reference, under -race), the
# org parallel-search
# determinism gate (parallel multi-start ≡ serial bit-for-bit over a shared
# engine, under -race), the warm-solve allocation budget (zero large
# allocations per steady-state solve), and the multigrid CG-iteration gate
# (the 64x64 production solve must stay within its committed iteration
# budget — the machine-independent form of the cold-solve speedup claim).
#
# The full verification tier (paper-scale grids, figure goldens) is not run
# here; run it explicitly with `go test ./internal/verify -long` or
# `go run ./cmd/chipletverify -long`.
set -eu

cd "$(dirname "$0")/.."

short=""
if [ "${1:-}" = "-short" ]; then
    short="-short"
fi

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> physics verification fast gate (chipletverify -quick)"
# Analytic oracles, randomized physics invariants, and the mutation smoke
# test (a seeded 1% conductivity perturbation must be caught twice over).
# Runs in well under a second; the std tier runs inside the -race suite
# below, and the long tier is an explicit developer command.
go run ./cmd/chipletverify -quick

echo "==> spatial-surrogate drift gate (chipletverify -run drift)"
# The spatial fidelity tier decides evaluations on its calibration's
# recorded worst-case error. Re-measure that bound at fresh non-DoE points
# and pin winner parity on the golden-corpus search, so a physics or fit
# change cannot silently leave the tier escalating on stale error bars.
go run ./cmd/chipletverify -run drift

echo "==> go test -race -coverprofile $short ./..."
go test -race -coverprofile=coverage.out $short ./...

if [ -z "$short" ]; then
    echo "==> coverage gate"
    # Total statement coverage must not fall below the recorded baseline
    # (80.4% measured 2026-08 after the TCO elaborator landed; the floor at
    # 80.0% leaves headroom for new command mains, which are smoke-tested
    # rather than unit-tested). Per-package numbers are printed by the test
    # run above.
    go tool cover -func=coverage.out | awk '
        END {
            sub(/%$/, "", $NF); total = $NF + 0
            if (total < 80.0) {
                printf "coverage gate: total %.1f%% below the 80.0%% baseline\n", total > "/dev/stderr"
                exit 1
            }
            printf "coverage gate: total %.1f%% >= 80.0%% baseline\n", total
        }'

    echo "==> fuzz smoke (3s per target)"
    # Each parser/decoder fuzz target gets a short randomized shake. Real
    # fuzzing campaigns run longer out-of-band; this catches panics
    # introduced by the current change. (Skipped under -short.)
    go test -fuzz 'FuzzReadFLP' -fuzztime 3s -run '^$' ./internal/hotspotio
    go test -fuzz 'FuzzReadPTrace' -fuzztime 3s -run '^$' ./internal/hotspotio
    go test -fuzz 'FuzzLoad$' -fuzztime 3s -run '^$' ./internal/config
    go test -fuzz 'FuzzLoadServer' -fuzztime 3s -run '^$' ./internal/config
    go test -fuzz 'FuzzSolveRequestDecode' -fuzztime 3s -run '^$' ./internal/serve
    go test -fuzz 'FuzzSearchRequestDecode' -fuzztime 3s -run '^$' ./internal/serve
    go test -fuzz 'FuzzTCORequestDecode' -fuzztime 3s -run '^$' ./internal/serve
fi

echo "==> chipletd daemon smoke (build binary, drive endpoints, SIGTERM drain)"
# Redundant under a full (non-short) test run above, but cheap, and it keeps
# the daemon check explicit when CI runs with -short.
go test -run 'TestDaemonSmoke' -count 1 ./cmd/chipletd

echo "==> chipletd two-node sharded smoke (winner parity + peer-fetch hit)"
# Two real daemons as mutual -peers plus a standalone reference: solve and
# search answers must agree bit-for-bit across all three, and the non-owner
# must report >= 1 chipletd_eval_peer_hits_total (it answered its memo miss
# from the owner instead of re-simulating).
go test -run 'TestShardedSmoke' -count 1 ./cmd/chipletd

echo "==> chipletd cache benchmarks (smoke)"
go test -run '^$' -bench 'BenchmarkChipletdSolve' -benchtime 3x .

echo "==> tracer overhead guard"
# The serving path traces every request, so span creation must stay nearly
# free. Compare the best-of-3 traced vs untraced solve; fail above +5%
# (the acceptance bound; the per-span cost is a mutex'd append, and at
# best-of-3 the residual benchmark noise sits well inside the margin).
bench_out=$(go test -run '^$' -bench 'BenchmarkSolve(Traced|Untraced)$' -benchtime 3x -count 3 .)
echo "$bench_out"
echo "$bench_out" | awk '
    /^BenchmarkSolveUntraced/ { if (!u || $3 < u) u = $3 }
    /^BenchmarkSolveTraced/   { if (!t || $3 < t) t = $3 }
    END {
        if (!u || !t) { print "tracer guard: missing benchmark output" > "/dev/stderr"; exit 1 }
        ratio = t / u
        printf "tracer overhead: traced %.0f ns/op vs untraced %.0f ns/op (%.2fx)\n", t, u, ratio
        if (ratio > 1.05) { print "tracer guard: overhead above 5%" > "/dev/stderr"; exit 1 }
    }'

echo "==> export overhead guard"
# The OTLP exporter must keep export off the solve path: enqueue is a
# bounded, drop-oldest append behind a mutex and all POSTs happen on the
# background worker. Compare the best-of-3 traced+exporting solve against
# the untraced baseline; fail above +5% (same bound as the tracer guard).
bench_out=$(go test -run '^$' -bench 'BenchmarkSolve(TracedExporting|Untraced)$' -benchtime 3x -count 3 .)
echo "$bench_out"
echo "$bench_out" | awk '
    /^BenchmarkSolveUntraced/        { if (!u || $3 < u) u = $3 }
    /^BenchmarkSolveTracedExporting/ { if (!t || $3 < t) t = $3 }
    END {
        if (!u || !t) { print "export guard: missing benchmark output" > "/dev/stderr"; exit 1 }
        ratio = t / u
        printf "export overhead: exporting %.0f ns/op vs untraced %.0f ns/op (%.2fx)\n", t, u, ratio
        if (ratio > 1.05) { print "export guard: overhead above 5%" > "/dev/stderr"; exit 1 }
    }'

echo "==> disabled-exporter zero-allocation gate"
# With no -otlp-endpoint the exporter is a nil receiver; the per-request
# cost on the serving path must be exactly zero allocations.
go test -count 1 -run 'TestDisabledExporterZeroAlloc' ./internal/obs/export

echo "==> thermal concurrent-solve stress (-race)"
# Redundant under the full -race run above, but explicit and cheap: pooled
# workspaces must isolate concurrent solves on one shared model, and every
# field must match the sequential reference bit for bit. That is what keeps
# chipletd's content-addressed cache honest, so it gets its own named gate.
go test -race -count 1 -run 'TestConcurrentSolves' ./internal/thermal

echo "==> org parallel-search determinism (golden parallel≡serial, -race)"
# The parallel multi-start search promises bit-identical results to the
# serial path at any worker count, with many goroutines hammering one shared
# engine. That contract is what lets chipletd share a process-wide memo and
# content-address searches independently of their worker knobs, so it gets
# its own named gate under -race, together with the fan-out that lends
# helpers to restarts and calibration simulations mid-run.
go test -race -count 1 \
    -run 'TestParallelRestartsMatchSerial|TestParallelFindPlacementMatchesSerial|TestSharedEngineSearchersMatchPrivate|TestEngineConcurrentStress|TestLentSearchMatchesSerial|TestFanOutRunsEachIndexOnce|TestStopIndexKeepsSerialError' \
    ./internal/org

echo "==> org package under -race"
# Cache-friendly form (no -count): reuses the full -race run's cached result
# when nothing changed, and re-runs the whole package otherwise.
go test -race ./internal/org/...

echo "==> thermal warm-solve allocation budget"
# Steady-state serving must not allocate vectors: a warm SolveWarm is
# bounded at a few objects per op (Result header + pool boxing).
go test -count 1 -run 'TestSolveWarmSteadyStateAllocBudget' ./internal/thermal

echo "==> multigrid CG-iteration gate"
# The machine-independent half of the cold-solve speedup claim: the
# multigrid-preconditioned production 64x64 solve must converge within its
# committed iteration budget (IC(0) needs ~80 iterations on the same
# system). A wall-clock gate would flake with host load; the iteration
# count is deterministic, so a regression here is a real preconditioner
# regression.
go test -count 1 -run 'TestMGIterationBudget64' ./internal/thermal

echo "==> ci.sh: all green"
