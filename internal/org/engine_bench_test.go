package org

import (
	"context"
	"testing"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/power"
)

// benchSearchConfig is the multi-start search benchmark workload: the fast
// test geometry with more restarts so restart-level parallelism has work to
// spread.
func benchSearchConfig(b *testing.B, workers int) Config {
	b.Helper()
	bench, err := perf.ByName("cholesky")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(bench)
	cfg.Thermal.Nx, cfg.Thermal.Ny = 16, 16
	cfg.InterposerStepMM = 2
	cfg.Starts = 8
	cfg.Seed = 3
	cfg.SearchWorkers = workers
	return cfg
}

// benchmarkMultiStartSearch runs a cold full optimization per iteration (a
// fresh searcher and engine, so every iteration pays the real simulation
// cost) and reports the engine's intra-search memo hit ratio alongside the
// timing.
func benchmarkMultiStartSearch(b *testing.B, workers int) {
	cfg := benchSearchConfig(b, workers)
	var hits, misses int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSearcher(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Optimize(); err != nil {
			b.Fatal(err)
		}
		st := s.Engine().Stats()
		hits += st.Hits
		misses += st.Misses
	}
	if hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "memo-hit-ratio")
	}
}

func BenchmarkMultiStartSearchSerial(b *testing.B)   { benchmarkMultiStartSearch(b, 1) }
func BenchmarkMultiStartSearchWorkers2(b *testing.B) { benchmarkMultiStartSearch(b, 2) }
func BenchmarkMultiStartSearchWorkers4(b *testing.B) { benchmarkMultiStartSearch(b, 4) }
func BenchmarkMultiStartSearchWorkers8(b *testing.B) { benchmarkMultiStartSearch(b, 8) }

// BenchmarkMultiStartSearchWarmShared measures the same multi-start search
// over an already-warm process-wide engine — the chipletd steady state,
// where earlier requests populated the shared memo. Every restart's
// evaluations dedupe into memo hits, so the ratio against the cold serial
// benchmark is the wall-clock win the shared memo buys repeated searches
// (it holds even on a single-CPU host, unlike restart parallelism).
func BenchmarkMultiStartSearchWarmShared(b *testing.B) {
	cfg := benchSearchConfig(b, 1)
	eng, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	warm, err := NewSearcherWithEngine(cfg, eng)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := warm.Optimize(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSearcherWithEngine(cfg, eng)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Optimize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiStartSearchSerial32 runs the cold full optimization at a
// 32x32 thermal grid, the smallest grid NewModel preconditions with
// multigrid, unlike the 16x16 fast grid (IC(0)) the other search benchmarks
// use. model-reuses/op reports how many full simulations skipped model
// assembly.
func BenchmarkMultiStartSearchSerial32(b *testing.B) {
	cfg := benchSearchConfig(b, 1)
	cfg.Thermal.Nx, cfg.Thermal.Ny = 32, 32
	var reuses int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSearcher(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Optimize(); err != nil {
			b.Fatal(err)
		}
		reuses += s.Engine().Stats().ModelReuses
	}
	b.ReportMetric(float64(reuses)/float64(b.N), "model-reuses/op")
}

// BenchmarkSearchFullFidelity32 is the same search in the full-fidelity
// regime (surrogate ladder off, every evaluation simulates) — the paper's
// original workflow, whose CPU cost the paper counts in hours. Here each
// placement is simulated at many operating points, so the retained models
// actually recur and the multigrid hierarchy setup amortizes.
func BenchmarkSearchFullFidelity32(b *testing.B) {
	cfg := benchSearchConfig(b, 1)
	cfg.Thermal.Nx, cfg.Thermal.Ny = 32, 32
	cfg.SurrogateMarginC = -1 // full fidelity: every evaluation simulates
	var reuses, sims int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSearcher(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Optimize(); err != nil {
			b.Fatal(err)
		}
		st := s.Engine().Stats()
		reuses += st.ModelReuses
		sims += st.ThermalSims
	}
	b.ReportMetric(float64(sims)/float64(b.N), "full-sims/op")
	b.ReportMetric(float64(reuses)/float64(b.N), "model-reuses/op")
}

// BenchmarkEngineLookupHit measures a memoized engine lookup — the cost a
// deduplicated evaluation pays instead of a full simulation.
func BenchmarkEngineLookupHit(b *testing.B) {
	cfg := benchSearchConfig(b, 1)
	eng, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	pl := floorplan.SingleChip()
	op := power.FrequencySet[0]
	ctx := context.Background()
	if _, _, err := eng.Simulate(ctx, cfg.Benchmark, pl, op, 64); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Simulate(ctx, cfg.Benchmark, pl, op, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkSearchFidelity runs a cold full optimization per iteration with
// the given fidelity policy and reports the full-simulation count and the
// spatial-tier hit ratio per run. The pair of results (spatial on vs
// surrogates off) gives the full-CG-solve-reduction figure; DoE
// calibration solves are counted against the spatial run, so the ratio is
// honest end to end.
func benchmarkSearchFidelity(b *testing.B, spatial bool) {
	cfg := benchSearchConfig(b, 1)
	cfg.SpatialSurrogate = spatial
	if !spatial {
		cfg.SurrogateMarginC = -1 // full fidelity: every evaluation simulates
	}
	var sims, spatialHits, evals int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSearcher(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Optimize(); err != nil {
			b.Fatal(err)
		}
		sims += int64(s.ThermalSims())
		spatialHits += int64(s.SpatialSurrogateHits())
		evals += int64(s.ThermalSims() + s.SurrogateHits())
	}
	b.ReportMetric(float64(sims)/float64(b.N), "full-sims/op")
	if evals > 0 {
		b.ReportMetric(float64(spatialHits)/float64(evals), "spatial-hit-ratio")
	}
}

func BenchmarkSearchFullFidelity(b *testing.B) { benchmarkSearchFidelity(b, false) }
func BenchmarkSearchSpatialTier(b *testing.B)  { benchmarkSearchFidelity(b, true) }

// BenchmarkSpatialPredict measures a warm spatial-tier evaluation: model
// calibrated, kernel matrix cached — the steady-state cost of the cheapest
// fidelity tier (compare BenchmarkEngineLookupHit and the ~ms full solve).
func BenchmarkSpatialPredict(b *testing.B) {
	cfg := benchSearchConfig(b, 1)
	eng, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := floorplan.PaperOrg(16, 1, 1, 2.5)
	if err != nil {
		b.Fatal(err)
	}
	op := power.FrequencySet[2]
	ctx := context.Background()
	if _, err := eng.SpatialPredictPeakC(ctx, cfg.Benchmark, pl, op, 160); err != nil {
		b.Fatal(err)
	}
	pol := EvalPolicy{ThresholdC: cfg.ThresholdC, ScalarMarginC: cfg.SurrogateMarginC, Spatial: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.PeakCPolicy(ctx, cfg.Benchmark, pl, op, 160, pol); err != nil {
			b.Fatal(err)
		}
	}
}
