package org

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"chiplet25d/internal/power"
)

// Parallel exhaustive scanning must agree exactly with the serial scan (the
// workers run pure simulations; merging is deterministic in effect).
func TestParallelExhaustiveMatchesSerial(t *testing.T) {
	cfg := fastConfig(t, "canneal")
	serial, err := NewSearcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plS, peakS, foundS, err := serial.FindPlacementExhaustive(16, 32, power.FrequencySet[0], 224)
	if err != nil {
		t.Fatal(err)
	}
	par := cfg
	par.SearchWorkers = 4
	pSearcher, err := NewSearcher(par)
	if err != nil {
		t.Fatal(err)
	}
	plP, peakP, foundP, err := pSearcher.FindPlacementExhaustive(16, 32, power.FrequencySet[0], 224)
	if err != nil {
		t.Fatal(err)
	}
	if foundS != foundP {
		t.Fatalf("feasibility disagreement: serial %v, parallel %v", foundS, foundP)
	}
	if foundS {
		if math.Abs(peakS-peakP) > 1e-9 {
			t.Fatalf("peak disagreement: %.6f vs %.6f", peakS, peakP)
		}
		if plS.S1 != plP.S1 || plS.S2 != plP.S2 {
			t.Fatalf("placement disagreement: (%g,%g) vs (%g,%g)", plS.S1, plS.S2, plP.S1, plP.S2)
		}
	}
	if pSearcher.ThermalSims() == 0 {
		t.Fatalf("parallel scan ran no simulations")
	}
}

// Race check: the parallel scan must be clean under the race detector (this
// test's value is in running with -race in CI).
func TestParallelExhaustiveRepeated(t *testing.T) {
	cfg := fastConfig(t, "swaptions")
	cfg.SearchWorkers = 3
	s, err := NewSearcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, _, err := s.FindPlacementExhaustive(16, 30, power.FrequencySet[1], 192); err != nil {
			t.Fatal(err)
		}
	}
	// Second pass must be fully memoized.
	sims := s.ThermalSims()
	if _, _, _, err := s.FindPlacementExhaustive(16, 30, power.FrequencySet[1], 192); err != nil {
		t.Fatal(err)
	}
	if s.ThermalSims() != sims {
		t.Fatalf("memoization failed across parallel scans")
	}
}

// grantLender grants its first k borrows and refuses every later one, the
// way a daemon's pool stops lending once requests arrive mid-search.
type grantLender struct{ left atomic.Int32 }

func newGrantLender(k int) *grantLender {
	g := &grantLender{}
	g.left.Store(int32(k))
	return g
}

func (g *grantLender) TryLend() (func(), bool) {
	if g.left.Add(-1) < 0 {
		return nil, false
	}
	return func() {}, true
}

// A search whose lender grants k helper slots and then refuses mid-run —
// through the spatial calibration's DoE fan-out and the restart fan-out —
// returns the serial search's winner, baseline, calibration record and
// simulation count.
func TestLentSearchMatchesSerial(t *testing.T) {
	cfg := fastConfig(t, "cholesky")
	cfg.SpatialSurrogate = true
	serial, err := NewSearcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	wantCal, err := serial.Engine().SpatialCalibration(context.Background(), cfg.Benchmark, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{3, 40} { // refused mid-calibration, mid-restarts
		par := cfg
		par.SearchWorkers = 3
		s, err := NewSearcher(par)
		if err != nil {
			t.Fatal(err)
		}
		lender := newGrantLender(k)
		s.WithContext(WithLender(context.Background(), lender))
		got, err := s.Optimize()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		label := fmt.Sprintf("k=%d", k)
		sameResult(t, want, got, label)
		if s.helpers.Peak() < 1 {
			t.Errorf("%s: no helper ran", label)
		}
		if lender.left.Load() >= 0 {
			t.Errorf("%s: the search never ran out of lent slots", label)
		}
		if got.ThermalSims != want.ThermalSims || s.ThermalSims() != serial.ThermalSims() {
			t.Errorf("%s: thermal sims %d (searcher %d), serial %d (searcher %d)", label,
				got.ThermalSims, s.ThermalSims(), want.ThermalSims, serial.ThermalSims())
		}
		gotCal, err := s.Engine().SpatialCalibration(context.Background(), cfg.Benchmark, 16)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantCal, gotCal) {
			t.Errorf("%s: calibration record differs:\n  %+v\nvs\n  %+v", label, wantCal, gotCal)
		}
	}
}
