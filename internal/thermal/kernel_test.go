package thermal

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/obs"
)

// gridModel builds a model over the paper's 4x4 uniform-grid organization
// at the given resolution, with the power map driving it.
func gridModel(t testing.TB, nx int) (*Model, []float64) {
	t.Helper()
	pl, err := floorplan.UniformGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := floorplan.BuildStack(pl)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = nx, nx
	m, err := NewModel(stack, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pmap := make([]float64, m.Grid().NumCells())
	for _, c := range pl.Chiplets {
		m.Grid().RasterizeAdd(pmap, c, 25)
	}
	return m, pmap
}

// TestConcurrentSolves hammers one model from many goroutines (run under
// -race in CI): the workspace and solution pools must isolate concurrent
// solves, and every result must match the sequential reference
// bit-for-bit.
func TestConcurrentSolves(t *testing.T) {
	m, pmap := gridModel(t, 16)
	ref, err := m.Solve(pmap)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				res, err := m.Solve(pmap)
				if err != nil {
					errs <- err
					return
				}
				for i := range ref.T {
					if res.T[i] != ref.T[i] {
						errs <- fmt.Errorf("T[%d] = %v, want %v", i, res.T[i], ref.T[i])
						return
					}
				}
				res.Recycle()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSolveWarmSteadyStateAllocBudget pins the zero-alloc claim: once the
// pools are primed, a warm solve allocates only the Result header and the
// pool boxing — no vectors.
func TestSolveWarmSteadyStateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget holds only uninstrumented")
	}
	m, pmap := gridModel(t, 32)
	prev, err := m.Solve(pmap)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		res, err := m.SolveWarm(pmap, prev)
		if err != nil {
			t.Fatal(err)
		}
		prev.Recycle()
		prev = res
	})
	// Result struct, pool interface boxing, span attributes; anything near
	// a vector's worth of allocations means a workspace leaked out of the
	// pool.
	if allocs > 10 {
		t.Fatalf("warm solve allocated %.0f objects/op, want <= 10", allocs)
	}
}

// TestSolveMultiCtx covers the satellite path: cancellation propagates and
// the solve runs under a "thermal.cg" span like SolveWarmCtx does.
func TestSolveMultiCtx(t *testing.T) {
	m, pmap := gridModel(t, 16)
	chipLayer := m.ChipLayerOffset() / m.nCells
	perLayer := map[int][]float64{chipLayer: pmap}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.SolveMultiCtx(canceled, perLayer); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveMultiCtx with canceled context: got %v, want context.Canceled", err)
	}

	tr := obs.NewTrace("test", "kernel_test")
	ctx := obs.WithTrace(context.Background(), tr)
	res, err := m.SolveMultiCtx(ctx, perLayer)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakC() <= m.cfg.AmbientC {
		t.Errorf("peak %.2f not above ambient %.2f", res.PeakC(), m.cfg.AmbientC)
	}
	tr.Finish()
	found := false
	tr.Snapshot().Walk(func(sp *obs.SpanJSON) {
		if sp.Name == "thermal.cg" {
			found = true
		}
	})
	if !found {
		t.Error("SolveMultiCtx left no thermal.cg span in the trace")
	}

	// Single-layer multi must agree with the plain solve bit-for-bit (same
	// RHS, same cold start).
	ref, err := m.Solve(pmap)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.T {
		if res.T[i] != ref.T[i] {
			t.Fatalf("T[%d] = %v, Solve gives %v", i, res.T[i], ref.T[i])
		}
	}
}

// TestSolveMultiCtxRejectsBadInput keeps the validation of the old
// SolveMulti path intact after the ctx rewiring.
func TestSolveMultiCtxRejectsBadInput(t *testing.T) {
	m, pmap := gridModel(t, 16)
	ctx := context.Background()
	if _, err := m.SolveMultiCtx(ctx, map[int][]float64{-1: pmap}); err == nil {
		t.Error("expected error for negative layer")
	}
	if _, err := m.SolveMultiCtx(ctx, map[int][]float64{99: pmap}); err == nil {
		t.Error("expected error for out-of-range layer")
	}
	if _, err := m.SolveMultiCtx(ctx, map[int][]float64{0: pmap[:3]}); err == nil {
		t.Error("expected error for short power map")
	}
	bad := make([]float64, len(pmap))
	bad[0] = -1
	if _, err := m.SolveMultiCtx(ctx, map[int][]float64{0: bad}); err == nil {
		t.Error("expected error for negative power")
	}
}

// TestRecycleTwice guards the at-most-once contract.
func TestRecycleTwice(t *testing.T) {
	m, pmap := gridModel(t, 16)
	res, err := m.Solve(pmap)
	if err != nil {
		t.Fatal(err)
	}
	res.Recycle()
	res.Recycle() // must be a no-op, not a double pool put
	if res.T != nil {
		t.Error("Recycle left T non-nil")
	}
}

func benchSolveWarm(b *testing.B, nx int) {
	m, pmap := gridModel(b, nx)
	prev, err := m.Solve(pmap)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.SolveWarm(pmap, prev)
		if err != nil {
			b.Fatal(err)
		}
		prev.Recycle()
		prev = res
	}
}

func BenchmarkSolveWarmGrid64Serial(b *testing.B) { benchSolveWarm(b, 64) }

// BenchmarkSpmvStriped times one pass of the CSR SpMV at the
// production grid — the bandwidth-bound inner kernel of every CG
// iteration.
func BenchmarkSpmvStriped(b *testing.B) {
	m, _ := gridModel(b, 64)
	x := make([]float64, m.nNodes)
	y := make([]float64, m.nNodes)
	for i := range x {
		x[i] = float64(i%7) * 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmvStriped(m.diag, m.csr, y, x, nil, nil)
	}
}

// BenchmarkICApply times one IC(0) forward+backward substitution, the
// serial latency-bound half of a CG iteration.
func BenchmarkICApply(b *testing.B) {
	m, _ := gridModel(b, 64)
	forced(b, m, PrecondIC0)
	r := make([]float64, m.nNodes)
	z := make([]float64, m.nNodes)
	for i := range r {
		r[i] = float64(i%5) * 0.25
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.precond.apply(z, r)
	}
}
