package org

import (
	"math"
	"testing"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/power"
)

// fastConfig returns a coarse, quick configuration for tests: 16x16 thermal
// grid and a 2 mm interposer step.
func fastConfig(t *testing.T, benchName string) Config {
	t.Helper()
	b, err := perf.ByName(benchName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(b)
	cfg.Thermal.Nx, cfg.Thermal.Ny = 16, 16
	cfg.InterposerStepMM = 2
	cfg.Starts = 5
	return cfg
}

func TestConfigValidate(t *testing.T) {
	cfg := fastConfig(t, "cholesky")
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Objective = Objective{}
	if err := bad.Validate(); err == nil {
		t.Errorf("expected error for zero objective weights")
	}
	bad = cfg
	bad.ThresholdC = 40
	if err := bad.Validate(); err == nil {
		t.Errorf("expected error for threshold below ambient")
	}
	bad = cfg
	bad.ChipletCounts = []int{9}
	if err := bad.Validate(); err == nil {
		t.Errorf("expected error for unsupported chiplet count")
	}
	bad = cfg
	bad.InterposerMinMM = 60
	if err := bad.Validate(); err == nil {
		t.Errorf("expected error for interposer range beyond Eq. (7)")
	}
	bad = cfg
	bad.Starts = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("expected error for zero starts")
	}
}

func TestObjectiveValidate(t *testing.T) {
	if err := (Objective{Alpha: -1, Beta: 1}).Validate(); err == nil {
		t.Errorf("expected error for negative alpha")
	}
	if err := (Objective{Alpha: 0.5, Beta: 0.5}).Validate(); err != nil {
		t.Errorf("balanced objective should validate: %v", err)
	}
}

func TestBaselineHighPowerIsThermallyLimited(t *testing.T) {
	s, err := NewSearcher(fastConfig(t, "shock"))
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if !base.Feasible {
		t.Fatal("shock baseline should have some feasible configuration")
	}
	// The single chip cannot run shock with all cores at 1 GHz (that is
	// the dark-silicon premise).
	full := power.FrequencySet[0]
	if base.Op == full && base.ActiveCores == 256 {
		t.Fatalf("shock baseline at full throttle contradicts the dark-silicon premise")
	}
	if base.PeakC > s.cfg.ThresholdC {
		t.Fatalf("baseline best config violates its own threshold: %.1f", base.PeakC)
	}
	if base.BestIPS >= s.cfg.Benchmark.IPS(full, 256) {
		t.Fatalf("baseline IPS should be below the unconstrained maximum")
	}
}

func TestBaselineMemoized(t *testing.T) {
	s, err := NewSearcher(fastConfig(t, "lu.cont"))
	if err != nil {
		t.Fatal(err)
	}
	b1, err := s.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	sims := s.ThermalSims()
	b2, err := s.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if s.ThermalSims() != sims {
		t.Errorf("second Baseline() call re-ran simulations")
	}
	if b1 != b2 {
		t.Errorf("baseline not stable: %+v vs %+v", b1, b2)
	}
}

func TestFindPlacementFeasibleCase(t *testing.T) {
	s, err := NewSearcher(fastConfig(t, "canneal"))
	if err != nil {
		t.Fatal(err)
	}
	// Low-power benchmark, few cores, large interposer: must find easily.
	pl, peak, found, err := s.FindPlacement(16, 40, power.FrequencySet[2], 96)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("expected a feasible placement for a cool workload on a 40 mm interposer")
	}
	if peak > s.cfg.ThresholdC {
		t.Fatalf("returned placement violates the threshold: %.1f", peak)
	}
	if err := pl.Validate(); err != nil {
		t.Fatalf("returned placement invalid: %v", err)
	}
	if math.Abs(pl.W-40) > 1e-9 {
		t.Fatalf("placement edge %.1f, want the requested 40 mm", pl.W)
	}
}

func TestFindPlacementInfeasibleCase(t *testing.T) {
	s, err := NewSearcher(fastConfig(t, "shock"))
	if err != nil {
		t.Fatal(err)
	}
	// All 256 cores at 1 GHz on a minimal 20 mm interposer: hopeless.
	_, _, found, err := s.FindPlacement(16, 20, power.FrequencySet[0], 256)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("shock at full throttle on a minimal interposer should be infeasible")
	}
	// An edge too small to even fit the chiplets is not an error, just
	// "no placement".
	_, _, found, err = s.FindPlacement(4, 19, power.FrequencySet[4], 32)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("19 mm interposer cannot fit 18 mm of silicon plus guard bands")
	}
}

func TestOptimizeCholeskyBeatsBaseline(t *testing.T) {
	s, err := NewSearcher(fastConfig(t, "cholesky"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("cholesky optimization should find a feasible organization")
	}
	best := res.Best
	if best.PeakC > s.cfg.ThresholdC {
		t.Fatalf("chosen organization violates Eq. (6): %.1f °C", best.PeakC)
	}
	if best.InterposerMM > floorplan.MaxInterposerEdgeMM+1e-9 {
		t.Fatalf("chosen organization violates Eq. (7): %.1f mm", best.InterposerMM)
	}
	// With α=1, β=0 the optimizer maximizes performance: a thermally
	// limited high-power benchmark must gain substantially from 2.5D.
	if best.NormPerf < 1.2 {
		t.Fatalf("cholesky 2.5D should beat the baseline clearly, got %.2fx", best.NormPerf)
	}
	if err := best.Placement.Validate(); err != nil {
		t.Fatalf("best placement invalid: %v", err)
	}
	if res.ThermalSims == 0 || res.CombosTried == 0 {
		t.Fatalf("bookkeeping missing: %+v", res)
	}
}

func TestOptimizeCostOnlyFindsCheapOrganization(t *testing.T) {
	cfg := fastConfig(t, "lu.cont")
	cfg.Objective = Objective{Alpha: 0, Beta: 1}
	s, err := NewSearcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("cost-only optimization should find a feasible organization")
	}
	// The paper: at the minimal interposer size 2.5D costs ~36% less.
	if res.Best.NormCost > 0.75 {
		t.Fatalf("cost-optimal organization should be much cheaper than the chip, got %.2fx", res.Best.NormCost)
	}
	// Cost-only optimum sits at (or near) the smallest feasible interposer.
	if res.Best.InterposerMM > 30 {
		t.Fatalf("cost-optimal interposer %.1f mm suspiciously large", res.Best.InterposerMM)
	}
}

func TestOptimizeRespectsThresholdSensitivity(t *testing.T) {
	// A higher temperature threshold can only improve (or match) the
	// optimal normalized performance... and the baseline improves too, so
	// here we just check both thresholds produce valid results.
	for _, th := range []float64{85, 105} {
		cfg := fastConfig(t, "hpccg")
		cfg.ThresholdC = th
		s, err := NewSearcher(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Fatalf("threshold %.0f: expected feasible result", th)
		}
		if res.Best.PeakC > th {
			t.Fatalf("threshold %.0f violated: %.1f", th, res.Best.PeakC)
		}
	}
}

func TestGreedyMatchesExhaustive(t *testing.T) {
	// The paper validates the greedy against exhaustive search (99%
	// agreement). On a coarse grid the two must pick the same (f, p, n,
	// interposer) here.
	for _, name := range []string{"canneal", "cholesky"} {
		g, err := NewSearcher(fastConfig(t, name))
		if err != nil {
			t.Fatal(err)
		}
		gr, err := g.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewSearcher(fastConfig(t, name))
		if err != nil {
			t.Fatal(err)
		}
		ex, err := e.OptimizeExhaustive()
		if err != nil {
			t.Fatal(err)
		}
		if gr.Feasible != ex.Feasible {
			t.Fatalf("%s: greedy feasible=%v, exhaustive=%v", name, gr.Feasible, ex.Feasible)
		}
		if !gr.Feasible {
			continue
		}
		if gr.Best.Op != ex.Best.Op || gr.Best.ActiveCores != ex.Best.ActiveCores ||
			gr.Best.N != ex.Best.N || math.Abs(gr.Best.InterposerMM-ex.Best.InterposerMM) > 1e-9 {
			t.Fatalf("%s: greedy %+v != exhaustive %+v", name, gr.Best, ex.Best)
		}
		if g.ThermalSims() > e.ThermalSims() {
			t.Errorf("%s: greedy used more sims (%d) than exhaustive (%d)",
				name, g.ThermalSims(), e.ThermalSims())
		}
	}
}

func TestMaxIPSAtEdgeMonotone(t *testing.T) {
	s, err := NewSearcher(fastConfig(t, "swaptions"))
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, edge := range []float64{22, 30, 40, 50} {
		o, found, err := s.MaxIPSAtEdge(edge)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("edge %.0f: no feasible organization for a low-power benchmark", edge)
		}
		if o.IPS < prev-1e-9 {
			t.Fatalf("max IPS decreased with interposer size at %.0f mm", edge)
		}
		prev = o.IPS
	}
}

func TestMinObjectiveAtEdge(t *testing.T) {
	cfg := fastConfig(t, "canneal")
	cfg.Objective = Objective{Alpha: 0.5, Beta: 0.5}
	s, err := NewSearcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obj, o, found, err := s.MinObjectiveAtEdgeWith(cfg.Objective, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("expected a feasible organization at 30 mm")
	}
	want := 0.5/o.NormPerf + 0.5*o.NormCost
	if math.Abs(obj-want) > 1e-9 {
		t.Fatalf("objective value %.4f inconsistent with organization %.4f", obj, want)
	}
}

func TestSurrogateAgreesWithFullSimulation(t *testing.T) {
	with := fastConfig(t, "streamcluster")
	without := with
	without.SurrogateMarginC = -1
	sw, err := NewSearcher(with)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := sw.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	so, err := NewSearcher(without)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := so.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if rw.Best.Op != ro.Best.Op || rw.Best.ActiveCores != ro.Best.ActiveCores ||
		rw.Best.N != ro.Best.N || math.Abs(rw.Best.InterposerMM-ro.Best.InterposerMM) > 1e-9 {
		t.Fatalf("surrogate changed the optimum: %+v vs %+v", rw.Best, ro.Best)
	}
	if sw.ThermalSims() >= so.ThermalSims() {
		t.Errorf("surrogate did not save simulations: %d vs %d", sw.ThermalSims(), so.ThermalSims())
	}
}

func TestPeakCRejectsBadInputs(t *testing.T) {
	s, err := NewSearcher(fastConfig(t, "canneal"))
	if err != nil {
		t.Fatal(err)
	}
	chip := floorplan.SingleChip()
	if _, err := s.PeakC(chip, power.DVFSPoint{FreqMHz: 123, VoltageV: 1}, 64); err == nil {
		t.Errorf("expected error for off-table operating point")
	}
	if _, err := s.PeakC(chip, power.NominalPoint, 0); err == nil {
		t.Errorf("expected error for zero active cores")
	}
	if _, err := s.PeakC(chip, power.NominalPoint, 300); err == nil {
		t.Errorf("expected error for too many active cores")
	}
}

func TestNeighborPolicyString(t *testing.T) {
	if RandomNeighbor.String() != "random" || SteepestDescent.String() != "steepest" {
		t.Errorf("neighbor policy strings wrong")
	}
}

// Both neighbor policies must find the same optimum on a coarse instance.
func TestSteepestDescentMatchesRandom(t *testing.T) {
	cfg := fastConfig(t, "cholesky")
	r, err := NewSearcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := r.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.NeighborPolicy = SteepestDescent
	s, err := NewSearcher(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := s.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Feasible != sr.Feasible {
		t.Fatalf("feasibility disagreement between neighbor policies")
	}
	if rr.Feasible && (rr.Best.Op != sr.Best.Op || rr.Best.ActiveCores != sr.Best.ActiveCores ||
		rr.Best.N != sr.Best.N) {
		t.Fatalf("policies disagree: %+v vs %+v", rr.Best, sr.Best)
	}
}
