package chiplet25d

// Benchmark harness: one testing.B benchmark per paper table/figure (each
// regenerates the artifact's data series at reduced scale through the same
// code paths cmd/experiments uses at full scale), plus micro-benchmarks of
// the substrates (thermal solve, cost model, NoC sizing, greedy search).
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
	"chiplet25d/internal/noc"
	"chiplet25d/internal/obs"
	"chiplet25d/internal/obs/export"
	"chiplet25d/internal/org"
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

// BenchmarkCostReduction regenerates the iso-performance 36% cost-saving
// headline.
func BenchmarkCostReduction(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"canneal"}
	runExperiment(b, "costreduction", o)
}

// BenchmarkGreedyVsExhaustive regenerates the Sec. III-D validation of the
// multi-start greedy against exhaustive placement search.
func BenchmarkGreedyVsExhaustive(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"canneal"}
	runExperiment(b, "validate", o)
}

// BenchmarkAblationNonUniform measures the non-uniform vs uniform spacing
// ablation (a DESIGN.md-flagged design choice).
func BenchmarkAblationNonUniform(b *testing.B) {
	runExperiment(b, "ablation-nonuniform", benchOptions())
}

// BenchmarkAblationAllocation measures the MinTemp vs row-major ablation.
func BenchmarkAblationAllocation(b *testing.B) {
	runExperiment(b, "ablation-alloc", benchOptions())
}

// --- substrate micro-benchmarks ---

// solve64Fixture assembles the paper's 64x64 full-stack model with its
// preconditioner forced to precond, plus a uniform 400 W power map — the
// shared setup of the cold-solve micro-benchmarks below.
func solve64Fixture(b *testing.B, precond string) (*thermal.Model, floorplan.Placement, []float64) {
	b.Helper()
	pl, err := floorplan.UniformGrid(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	stack, err := floorplan.BuildStack(pl)
	if err != nil {
		b.Fatal(err)
	}
	m, err := thermal.NewModel(stack, thermal.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := m.ForcePreconditionerForVerify(precond); err != nil {
		b.Fatal(err)
	}
	pmap := make([]float64, m.Grid().NumCells())
	for _, c := range pl.Chiplets {
		m.Grid().RasterizeAdd(pmap, c, 400.0/float64(len(pl.Chiplets)))
	}
	return m, pl, pmap
}

// benchmarkThermalSolve64 measures one cold steady-state solve of the
// paper's 64x64 grid (the unit of work the paper counts in CPU-hours) and
// reports the CG iteration count — the machine-independent half of the
// speedup claim.
func benchmarkThermalSolve64(b *testing.B, precond string) {
	m, _, pmap := solve64Fixture(b, precond)
	iters := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Solve(pmap)
		if err != nil {
			b.Fatal(err)
		}
		iters = res.Iterations
		res.Recycle()
	}
	b.ReportMetric(float64(iters), "cg-iters/op")
}

// BenchmarkThermalSolve64 is the IC(0)-preconditioned cold solve — the
// pre-multigrid baseline.
func BenchmarkThermalSolve64(b *testing.B) { benchmarkThermalSolve64(b, thermal.PrecondIC0) }

// BenchmarkThermalSolve64MG is the multigrid-preconditioned cold solve, the
// path NewModel picks at this grid; its ratio against
// BenchmarkThermalSolve64 is BENCH_5's cold_solve_speedup.
func BenchmarkThermalSolve64MG(b *testing.B) { benchmarkThermalSolve64(b, thermal.PrecondMG) }

// BenchmarkThermalModelAssembly measures conductance-matrix assembly plus
// preconditioner setup (the IC(0) factorization and, at this grid, the
// multigrid hierarchy) for the 64x64 2.5D stack.
func BenchmarkThermalModelAssembly(b *testing.B) {
	pl, err := floorplan.UniformGrid(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	stack, err := floorplan.BuildStack(pl)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := thermal.NewModel(stack, thermal.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeakageCoupledSim measures one full leakage-temperature
// fixed-point simulation (the optimizer's evaluation unit) at 32x32.
func BenchmarkLeakageCoupledSim(b *testing.B) {
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := power.Simulate(m, cores, w, power.DefaultSimOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostModel measures Eq. (1)-(4) evaluation across the interposer
// sweep.
func BenchmarkCostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		total := 0.0
		for edge := 20.0; edge <= 50; edge += 0.5 {
			pl, err := floorplan.PaperOrgForInterposer(16, edge, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			total += SystemCost(pl)
		}
		if total <= 0 {
			b.Fatal("bogus cost")
		}
	}
}

// BenchmarkMeshPower measures the NoC power model including interposer
// driver sizing for a 16-chiplet placement.
func BenchmarkMeshPower(b *testing.B) {
	pl, err := floorplan.UniformGrid(4, 8)
	if err != nil {
		b.Fatal(err)
	}
	lp, rp := noc.DefaultLinkParams(), noc.DefaultRouterParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := noc.MeshPower(pl, power.NominalPoint, 256, 0.1, lp, rp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyPlacementSearch measures one multi-start greedy placement
// search at a fixed cost bucket (the paper's step-3 unit).
func BenchmarkGreedyPlacementSearch(b *testing.B) {
	bench, err := perf.ByName("canneal")
	if err != nil {
		b.Fatal(err)
	}
	cfg := org.DefaultConfig(bench)
	cfg.Thermal.Nx, cfg.Thermal.Ny = 16, 16
	cfg.Starts = 5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := org.NewSearcher(cfg) // fresh searcher: no memo carryover
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, _, err := s.FindPlacement(16, 36, power.NominalPoint, 224); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkTransientStep measures one backward-Euler transient step of the
// 2.5D stack at the paper's grid.
func BenchmarkTransientStep(b *testing.B) {
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
	ts, err := m.NewTransientSolver(0.1)
	if err != nil {
		b.Fatal(err)
	}
	pmap := make([]float64, m.Grid().NumCells())
	for _, c := range pl.Chiplets {
		m.Grid().RasterizeAdd(pmap, c, 400.0/float64(len(pl.Chiplets)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ts.Step(pmap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXYLinkLoads measures the exact XY-routing load computation for
// the full 256-core mesh.
func BenchmarkXYLinkLoads(b *testing.B) {
	active := make([]bool, floorplan.NumCores)
	for i := range active {
		active[i] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := noc.XYLinkLoads(active); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnnealingPlacementSearch measures the simulated-annealing
// alternative to the greedy at the same instance.
func BenchmarkAnnealingPlacementSearch(b *testing.B) {
	bench, err := perf.ByName("canneal")
	if err != nil {
		b.Fatal(err)
	}
	cfg := org.DefaultConfig(bench)
	cfg.Thermal.Nx, cfg.Thermal.Ny = 16, 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := org.NewSearcher(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, _, err := s.FindPlacementAnnealing(16, 36, power.NominalPoint, 224, org.DefaultAnnealParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParetoFront measures the full cost-performance frontier
// extraction at reduced scale.
func BenchmarkParetoFront(b *testing.B) {
	bench, err := perf.ByName("swaptions")
	if err != nil {
		b.Fatal(err)
	}
	cfg := org.DefaultConfig(bench)
	cfg.Thermal.Nx, cfg.Thermal.Ny = 16, 16
	cfg.InterposerStepMM = 5
	cfg.Starts = 3
	points := 0
	for i := 0; i < b.N; i++ {
		s, err := org.NewSearcher(cfg)
		if err != nil {
			b.Fatal(err)
		}
		front, err := s.ParetoFront()
		if err != nil {
			b.Fatal(err)
		}
		points = len(front)
	}
	b.ReportMetric(float64(points), "front_points")
}

// BenchmarkOptimizeEndToEnd measures a complete Eq. (5) optimization run
// (reduced scale) for a low-power benchmark.
func BenchmarkOptimizeEndToEnd(b *testing.B) {
	bench, err := perf.ByName("canneal")
	if err != nil {
		b.Fatal(err)
	}
	cfg := org.DefaultConfig(bench)
	cfg.Thermal.Nx, cfg.Thermal.Ny = 16, 16
	cfg.InterposerStepMM = 2
	cfg.Starts = 5
	sims := 0
	for i := 0; i < b.N; i++ {
		s, err := org.NewSearcher(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Optimize()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible {
			b.Fatal("expected feasible result")
		}
		sims = res.ThermalSims
	}
	b.ReportMetric(float64(sims), "thermal_sims")
}

// BenchmarkStacking regenerates the 2D vs 2.5D vs 3D stacking comparison.
func BenchmarkStacking(b *testing.B) {
	runExperiment(b, "stacking", benchOptions())
}

// benchSolve runs the leakage-coupled solve loop that dominates every
// serving request, optionally under a span trace, so the pair below bounds
// the tracer's overhead on the hot path (spans are created inside every CG
// solve of every leakage iteration).
func benchSolve(b *testing.B, traced bool) {
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

// BenchmarkGreedyPlacementSearchAudited is BenchmarkGreedyPlacementSearch
// with a convergence audit log attached, bounding what ?audit=1 costs a
// search (one bounded ring append per event versus a nil check).
func BenchmarkGreedyPlacementSearchAudited(b *testing.B) {
	bench, err := perf.ByName("canneal")
	if err != nil {
		b.Fatal(err)
	}
	cfg := org.DefaultConfig(bench)
	cfg.Thermal.Nx, cfg.Thermal.Ny = 16, 16
	cfg.Starts = 5
	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := org.NewSearcher(cfg) // fresh searcher: no memo carryover
		if err != nil {
			b.Fatal(err)
		}
		al := org.NewAuditLog(256)
		s.WithAudit(al)
		b.StartTimer()
		if _, _, _, err := s.FindPlacement(16, 36, power.NominalPoint, 224); err != nil {
			b.Fatal(err)
		}
		events = al.Len()
	}
	b.ReportMetric(float64(events), "audit_events")
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

// BenchmarkChipletdPeerFetchHit measures what a peer pays to pull one
// memoized simulation over GET /v1/memo/{fingerprint}/{key} — the unit cost
// of the sharding layer's remote-memo alternative to re-simulating.
func BenchmarkChipletdPeerFetchHit(b *testing.B) {
	ts := newBenchHTTPServer(b)
	benchPost(b, ts.URL+"/v1/thermal/solve",
		`{"placement": {"chiplets": 4, "s3_mm": 1}, "benchmark": "cholesky",
		  "freq_mhz": 533, "cores": 128, "grid_n": 8}`)
	resp, err := http.Get(ts.URL + "/debug/shard?keys=1")
	if err != nil {
		b.Fatal(err)
	}
	var shard struct {
		Engines []struct {
			FingerprintHash string   `json:"fingerprint_hash"`
			MemoKeys        []string `json:"memo_keys"`
		} `json:"engines"`
	}
	err = json.NewDecoder(resp.Body).Decode(&shard)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	if len(shard.Engines) != 1 || len(shard.Engines[0].MemoKeys) == 0 {
		b.Fatalf("shard view = %+v, want one engine with a resident memo key", shard)
	}
	url := ts.URL + "/v1/memo/" + shard.Engines[0].FingerprintHash + "/" + shard.Engines[0].MemoKeys[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("memo fetch = %d", resp.StatusCode)
		}
	}
}
