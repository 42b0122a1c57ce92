package org

import (
	"context"
	"errors"
	"testing"
	"time"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/power"
)

func cancelTestConfig(t *testing.T) Config {
	t.Helper()
	b, err := perf.ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(b)
	cfg.Thermal.Nx, cfg.Thermal.Ny = 16, 16
	return cfg
}

// TestPeakCCanceled verifies a searcher whose context is already done
// refuses evaluations with the context's error.
func TestPeakCCanceled(t *testing.T) {
	s, err := NewSearcher(cancelTestConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.WithContext(ctx)
	pl, err := floorplan.PaperOrgForInterposer(16, 36, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PeakC(pl, power.NominalPoint, 224); !errors.Is(err, context.Canceled) {
		t.Fatalf("PeakC with canceled context: got %v, want context.Canceled", err)
	}
	if s.ThermalSims() != 0 {
		t.Fatalf("canceled searcher ran %d thermal sims", s.ThermalSims())
	}
}

// TestExhaustiveScanCanceled verifies the parallel exhaustive scan drains
// its workers and returns promptly when the context is canceled mid-run.
func TestExhaustiveScanCanceled(t *testing.T) {
	cfg := cancelTestConfig(t)
	cfg.SearchWorkers = 4
	cfg.SurrogateMarginC = -1 // force full simulations so the scan has real work
	s, err := NewSearcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.WithContext(ctx)
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, _, err = s.FindPlacementExhaustive(16, 40, power.NominalPoint, 256)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("exhaustive scan: got %v, want context.Canceled", err)
	}
	// The full 81-point scan takes many seconds; cancellation must cut it
	// to roughly the in-flight solves.
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("canceled scan still took %v", d)
	}
}

// TestOptimizeDeadline verifies a deadline aborts the full optimization
// loop through the PeakC check.
func TestOptimizeDeadline(t *testing.T) {
	cfg := cancelTestConfig(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	s, err := NewSearcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.WithContext(ctx)
	// Wait out the deadline: on a fast machine the reduced-scale optimize
	// can legitimately finish inside 50 ms, making a mid-flight race flaky.
	// Mid-flight cancellation is covered by TestExhaustiveScanCanceled.
	<-ctx.Done()
	if _, err := s.Optimize(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Optimize past deadline: got %v, want context.DeadlineExceeded", err)
	}
}
