package org

import (
	"testing"

	"chiplet25d/internal/power"
)

func TestParetoFrontProperties(t *testing.T) {
	s, err := NewSearcher(fastConfig(t, "hpccg"))
	if err != nil {
		t.Fatal(err)
	}
	front, err := s.ParetoFront()
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty Pareto front")
	}
	// Strictly increasing cost and IPS along the front; every point
	// respects the threshold.
	for i := range front {
		if front[i].PeakC > s.cfg.ThresholdC {
			t.Errorf("front point %d violates the threshold: %.1f", i, front[i].PeakC)
		}
		if i == 0 {
			continue
		}
		if front[i].CostUSD <= front[i-1].CostUSD {
			t.Errorf("front not sorted by cost at %d", i)
		}
		if front[i].IPS <= front[i-1].IPS {
			t.Errorf("dominated point survived at %d: %v after %v", i, front[i].IPS, front[i-1].IPS)
		}
	}
	// The front must contain the cheapest feasible organization and reach
	// the unconstrained best IPS for a benchmark that 2.5D fully unlocks.
	if front[0].NormCost > 0.7 {
		t.Errorf("cheapest front point %.3f should be near the 36%% saving", front[0].NormCost)
	}
	last := front[len(front)-1]
	bestIPS := 0.0
	for _, op := range power.FrequencySet {
		for _, p := range power.ActiveCoreCounts {
			if v := s.cfg.Benchmark.IPS(op, p); v > bestIPS {
				bestIPS = v
			}
		}
	}
	if last.IPS < 0.99*bestIPS {
		t.Errorf("front should reach the unconstrained optimum: %.1f vs %.1f", last.IPS, bestIPS)
	}
}

func TestParetoFilter(t *testing.T) {
	pts := []Organization{
		{CostUSD: 10, IPS: 100},
		{CostUSD: 12, IPS: 90}, // dominated
		{CostUSD: 15, IPS: 120},
		{CostUSD: 15, IPS: 110}, // dominated (same cost, slower)
		{CostUSD: 20, IPS: 120}, // dominated (same IPS, dearer)
	}
	front := paretoFilter(pts)
	if len(front) != 2 {
		t.Fatalf("front size = %d, want 2: %+v", len(front), front)
	}
	if front[0].CostUSD != 10 || front[1].CostUSD != 15 || front[1].IPS != 120 {
		t.Fatalf("wrong front: %+v", front)
	}
}
