package chiplet25d

// Benchmark harness: one testing.B benchmark per paper table/figure (each
// regenerates the artifact's data series at reduced scale through the same
// code paths cmd/experiments uses at full scale), the leakage-coupled solve
// (bare, traced and exporting, which scripts/ci.sh compares), and the
// chipletd serving-path benchmarks behind the cache and batching claims.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks report figure-specific metrics (rows produced,
// thermal sims) alongside time/op.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chiplet25d/internal/expt"
	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/obs"
	"chiplet25d/internal/obs/export"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/power"
	"chiplet25d/internal/serve"
	"chiplet25d/internal/thermal"
)

// benchOptions is the reduced-scale configuration used by the per-figure
// benchmarks: 16x16 thermal grid, benchmark subsets, coarse sweeps.
func benchOptions() expt.Options {
	return expt.Options{Scale: expt.Reduced, ThermalGridN: 16, Seed: 1}
}

func runExperiment(b *testing.B, name string, opts expt.Options) {
	b.Helper()
	e, err := expt.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	rows := 0
	for i := 0; i < b.N; i++ {
		tb, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(tb.Rows)
		if err := tb.WriteText(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkFig3aCostVsInterposer regenerates Fig. 3(a): normalized 2.5D
// cost versus interposer size for three defect densities.
func BenchmarkFig3aCostVsInterposer(b *testing.B) {
	runExperiment(b, "fig3a", benchOptions())
}

// BenchmarkFig3bTempVsInterposer regenerates Fig. 3(b): peak temperature
// versus interposer size for synthetic chiplet power densities.
func BenchmarkFig3bTempVsInterposer(b *testing.B) {
	runExperiment(b, "fig3b", benchOptions())
}

// BenchmarkFig5TempVsSpacing regenerates Fig. 5: peak temperature versus
// uniform chiplet spacing with all 256 cores at 1 GHz.
func BenchmarkFig5TempVsSpacing(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"shock", "canneal"}
	runExperiment(b, "fig5", o)
}

// BenchmarkFig6PerfCost regenerates Fig. 6: normalized maximum IPS and cost
// versus interposer size under 85 °C.
func BenchmarkFig6PerfCost(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"canneal"}
	runExperiment(b, "fig6", o)
}

// BenchmarkFig7Objective regenerates Fig. 7: minimum Eq. (5) objective
// versus interposer size for three (α, β) pairs.
func BenchmarkFig7Objective(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"canneal"}
	runExperiment(b, "fig7", o)
}

// BenchmarkFig8Organizations regenerates Fig. 8: the performance-optimal
// organizations and their MinTemp allocation maps.
func BenchmarkFig8Organizations(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"canneal"}
	runExperiment(b, "fig8", o)
}

// BenchmarkHeadlineIsoCost regenerates the Sec. V-B headline: iso-cost
// performance improvement at 85 °C.
func BenchmarkHeadlineIsoCost(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"cholesky"}
	runExperiment(b, "headline85", o)
}

// BenchmarkSensitivityThresholds regenerates the Sec. V-B threshold
// sensitivity study.
func BenchmarkSensitivityThresholds(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"cholesky"}
	runExperiment(b, "sensitivity", o)
}

// BenchmarkGreedyVsExhaustive regenerates the Sec. III-D validation of the
// multi-start greedy against exhaustive placement search.
func BenchmarkGreedyVsExhaustive(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"canneal"}
	runExperiment(b, "validate", o)
}

// BenchmarkFig2LinkModel regenerates the Fig. 2 link-model table.
func BenchmarkFig2LinkModel(b *testing.B) {
	runExperiment(b, "fig2", benchOptions())
}

// BenchmarkSprint regenerates the computational-sprinting extension table.
func BenchmarkSprint(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"shock"}
	runExperiment(b, "sprint", o)
}

// BenchmarkTSPCurves regenerates the Thermal Safe Power extension table.
func BenchmarkTSPCurves(b *testing.B) {
	runExperiment(b, "tsp", benchOptions())
}

// BenchmarkReliability regenerates the lifetime-gain extension table.
func BenchmarkReliability(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"lu.cont"}
	runExperiment(b, "reliability", o)
}

// --- leakage-coupled solve benchmarks ---

// solveFixture is the shared setup of the leakage-coupled solve benchmarks:
// cholesky at the nominal point on a 16-chiplet placement with all 256
// cores active, over a 32x32 model.
func solveFixture(b *testing.B) (*thermal.Model, []floorplan.Core, power.Workload) {
	b.Helper()
	bench, err := perf.ByName("cholesky")
	if err != nil {
		b.Fatal(err)
	}
	pl, err := floorplan.UniformGrid(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	stack, err := floorplan.BuildStack(pl)
	if err != nil {
		b.Fatal(err)
	}
	tc := thermal.DefaultConfig()
	tc.Nx, tc.Ny = 32, 32
	m, err := thermal.NewModel(stack, tc)
	if err != nil {
		b.Fatal(err)
	}
	cores, err := pl.Cores()
	if err != nil {
		b.Fatal(err)
	}
	active, err := power.MintempActive(256)
	if err != nil {
		b.Fatal(err)
	}
	w := power.Workload{RefCoreW: bench.RefCoreW, Op: power.NominalPoint,
		Active: active, NoCW: 8, Leakage: power.DefaultLeakage()}
	return m, cores, w
}

// BenchmarkLeakageCoupledSim measures one full leakage-temperature
// fixed-point simulation (the optimizer's evaluation unit) at 32x32.
func BenchmarkLeakageCoupledSim(b *testing.B) {
	m, cores, w := solveFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := power.Simulate(m, cores, w, power.DefaultSimOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSolve runs the leakage-coupled solve loop that dominates every
// serving request, optionally under a span trace, so the pair below bounds
// the tracer's overhead on the hot path (spans are created inside every CG
// solve of every leakage iteration).
func benchSolve(b *testing.B, traced bool) {
	m, cores, w := solveFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := context.Background()
		if traced {
			ctx = obs.WithTrace(ctx, obs.NewTrace("bench", "bench"))
		}
		if _, err := power.SimulateCtx(ctx, m, cores, w, power.DefaultSimOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveUntraced is the baseline for the tracer-overhead guard in
// scripts/ci.sh: the same solve as BenchmarkSolveTraced on an untraced
// context, where Start returns nil spans.
func BenchmarkSolveUntraced(b *testing.B) { benchSolve(b, false) }

// BenchmarkSolveTraced measures the solve with a live trace attached, the
// way chipletd runs it. CI fails if this regresses more than a few percent
// over BenchmarkSolveUntraced.
func BenchmarkSolveTraced(b *testing.B) { benchSolve(b, true) }

// BenchmarkSolveTracedExporting measures the solve with a live trace that is
// finished, snapshotted, and enqueued to a running OTLP exporter after every
// iteration — the full serving-path telemetry cost. The export-overhead gate
// in scripts/ci.sh bounds this against BenchmarkSolveUntraced: the bounded
// async queue must keep export off the solve path.
func BenchmarkSolveTracedExporting(b *testing.B) {
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
	}))
	defer sink.Close()
	exp := export.New(export.Options{Endpoint: sink.URL})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = exp.Shutdown(ctx)
	}()

	m, cores, w := solveFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := obs.NewTrace("bench", "bench")
		ctx := obs.WithTrace(context.Background(), tr)
		if _, err := power.SimulateCtx(ctx, m, cores, w, power.DefaultSimOptions()); err != nil {
			b.Fatal(err)
		}
		tr.Finish()
		exp.Enqueue(tr.Snapshot())
	}
}

// --- chipletd serving-path benchmarks ---

// chipletdSolve posts one solve request through the full HTTP stack and
// fails the benchmark on any non-200.
func chipletdSolve(b *testing.B, h http.Handler, body string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/thermal/solve", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("solve = %d, body = %s", rec.Code, rec.Body)
	}
}

func chipletdBody(cores int) string {
	return fmt.Sprintf(`{"placement": {"chiplets": 4, "s3_mm": 1}, "benchmark": "cholesky",
		"freq_mhz": 533, "cores": %d, "grid_n": 16}`, cores)
}

// BenchmarkChipletdSolveCacheMiss measures the cold solve path through
// chipletd: every iteration uses a single-entry cache and a never-repeating
// key sequence, so each request runs a fresh leakage-coupled simulation.
func BenchmarkChipletdSolveCacheMiss(b *testing.B) {
	opts := serve.DefaultOptions()
	opts.CacheCapacity = 1                                       // alternating keys below can never hit
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil)) // keep bench output readable
	s := serve.New(opts)
	h := s.Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chipletdSolve(b, h, chipletdBody(floorplan.NumCores-i%2)) // 256/255 alternate
	}
}

// BenchmarkChipletdSolveCacheHit measures the warm path: one solve seeds
// the content-addressed cache, then every iteration is answered from it.
// The acceptance bar is >= 10x faster than BenchmarkChipletdSolveCacheMiss.
func BenchmarkChipletdSolveCacheHit(b *testing.B) {
	opts := serve.DefaultOptions()
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil)) // keep bench output readable
	s := serve.New(opts)
	h := s.Handler()
	body := chipletdBody(floorplan.NumCores)
	chipletdSolve(b, h, body) // seed the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chipletdSolve(b, h, body)
	}
}

// --- scale-out serving-path benchmarks ---

// sweepBatchBody is a 64-candidate near-duplicate sweep: four spacings that
// land in the same half-millimeter canonical cell, crossed with four DVFS
// frequencies and four core counts. The spacing axis coalesces 4-to-1
// inside the batch, so the 64 items resolve through 16 unique computations.
const sweepBatchBody = `{"sweep": {
  "solve": {"placement": {"chiplets": 4, "s3_mm": 1}, "benchmark": "cholesky",
            "freq_mhz": 533, "cores": 128, "grid_n": 8},
  "spacing_mm": [1.0, 1.05, 1.1, 1.2],
  "freq_mhz": [1000, 800, 533, 400],
  "cores": [128, 160, 192, 224]}}`

// newBenchHTTPServer starts a chipletd handler behind a real TCP listener so
// the batch-vs-sequential comparison charges both sides honest per-request
// HTTP costs, not recorder shortcuts.
func newBenchHTTPServer(b *testing.B) *httptest.Server {
	b.Helper()
	opts := serve.DefaultOptions()
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	ts := httptest.NewServer(serve.New(opts).Handler())
	b.Cleanup(ts.Close)
	return ts
}

func benchPost(b *testing.B, url, body string) []byte {
	b.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("POST %s = %d: %s", url, resp.StatusCode, out)
	}
	return out
}

// BenchmarkChipletdBatchSweep64Warm measures the 64-candidate sweep as one
// POST /v1/batch on the warm path: a single HTTP round trip whose items all
// resolve from the result cache. The cold seeding pass also reports the
// sweep's coalesce-hit-ratio (computed keys saved by canonicalization before
// the pool, 0.75 for this template). The acceptance bar in scripts/ci.sh is
// >= 3x over BenchmarkChipletdSequentialSweep64Warm.
func BenchmarkChipletdBatchSweep64Warm(b *testing.B) {
	ts := newBenchHTTPServer(b)
	var cold struct {
		Total            int     `json:"total"`
		Computed         int     `json:"computed"`
		CoalesceHitRatio float64 `json:"coalesce_hit_ratio"`
	}
	if err := json.Unmarshal(benchPost(b, ts.URL+"/v1/batch", sweepBatchBody), &cold); err != nil {
		b.Fatal(err)
	}
	if cold.Total != 64 {
		b.Fatalf("sweep expanded to %d items, want 64", cold.Total)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v1/batch", sweepBatchBody)
	}
	b.ReportMetric(cold.CoalesceHitRatio, "coalesce-hit-ratio")
}

// BenchmarkChipletdSequentialSweep64Warm is the client-side alternative the
// batch endpoint replaces: the same 64 candidates as 64 sequential HTTP
// solve requests against a warm cache.
func BenchmarkChipletdSequentialSweep64Warm(b *testing.B) {
	ts := newBenchHTTPServer(b)
	var bodies []string
	for _, spacing := range []float64{1.0, 1.05, 1.1, 1.2} {
		for _, freq := range []int{1000, 800, 533, 400} {
			for _, cores := range []int{128, 160, 192, 224} {
				bodies = append(bodies, fmt.Sprintf(
					`{"placement": {"chiplets": 4, "s3_mm": %g}, "benchmark": "cholesky",
					  "freq_mhz": %d, "cores": %d, "grid_n": 8}`, spacing, freq, cores))
			}
		}
	}
	for _, body := range bodies { // warm the cache
		benchPost(b, ts.URL+"/v1/thermal/solve", body)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			benchPost(b, ts.URL+"/v1/thermal/solve", body)
		}
	}
}
