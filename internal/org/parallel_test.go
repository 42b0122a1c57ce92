package org

import (
	"math"
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
