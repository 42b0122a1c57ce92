package org

import (
	"context"
	"math"
	"strings"
	"testing"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/power"
	"chiplet25d/internal/surrogate"
)

// freshPoint is an evaluation point deliberately absent from the DoE plan,
// used to probe the calibrated model's generalization.
type freshPoint struct {
	n          int
	s1, s2, s3 float64
	fIdx, p    int
}

func (q freshPoint) placement(t testing.TB) floorplan.Placement {
	t.Helper()
	if q.n == 1 {
		return floorplan.SingleChip()
	}
	pl, err := floorplan.PaperOrg(q.n, q.s1, q.s2, q.s3)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// freshPoints spans all three classes with geometries, DVFS points, and
// core counts not in the DoE plan (spatialDoE).
var freshPoints = []freshPoint{
	{n: 1, fIdx: 1, p: 224},
	{n: 1, fIdx: 3, p: 160},
	{n: 4, s3: 2, fIdx: 1, p: 128},
	{n: 4, s3: 4.5, fIdx: 3, p: 224},
	{n: 4, s3: 0.5, fIdx: 0, p: 192},
	{n: 16, s1: 0.5, s2: 1, s3: 1.5, fIdx: 1, p: 128},
	{n: 16, s1: 1.5, s2: 0.5, s3: 3, fIdx: 3, p: 224},
	{n: 16, s1: 0.5, s2: 0.5, s3: 0.5, fIdx: 0, p: 32},
}

func TestSpatialCalibrationRecord(t *testing.T) {
	cfg := fastConfig(t, "cholesky")
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, n := range []int{1, 4, 16} {
		cal, err := eng.SpatialCalibration(ctx, cfg.Benchmark, n)
		if err != nil {
			t.Fatal(err)
		}
		if cal.Samples <= 0 || cal.HoldoutSamples <= 0 {
			t.Errorf("class %d: partition %d train / %d holdout, want both positive",
				n, cal.Samples, cal.HoldoutSamples)
		}
		if cal.Params.Chiplets() != n {
			t.Errorf("class %d: fitted %d chiplet parameters", n, cal.Params.Chiplets())
		}
		if cal.WorstCaseErrC < surrogate.SafetyPadC {
			t.Errorf("class %d: worst-case bound %g below the safety pad", n, cal.WorstCaseErrC)
		}
		// The bound is the safety-inflated end-to-end peak error, which is
		// deliberately tighter than the per-chiplet kernel errors (a cold
		// chiplet's misprediction never moves the peak); it must still be a
		// real measurement, not a degenerate zero.
		if cal.RMSFitErrC <= 0 || cal.WorstFitErrC <= 0 {
			t.Errorf("class %d: kernel fit errors (%g, %g) look degenerate",
				n, cal.RMSFitErrC, cal.WorstFitErrC)
		}
	}
	if _, err := eng.SpatialCalibration(ctx, cfg.Benchmark, 9); err == nil {
		t.Error("class 9: want an error for an unmodeled chiplet count")
	}
	st := eng.Stats()
	if st.Calibrations != 1 {
		t.Errorf("calibrations counter = %d, want 1", st.Calibrations)
	}
	if st.CalWorstErrC <= 0 {
		t.Errorf("calibration-error gauge = %g, want positive", st.CalWorstErrC)
	}
}

// TestSpatialPredictWithinBound replays fresh, non-DoE evaluation points
// through the spatial surrogate and checks every prediction lands within
// the class's recorded worst-case bound of the full simulation — the same
// property the verify drift tier re-checks continuously.
func TestSpatialPredictWithinBound(t *testing.T) {
	cfg := fastConfig(t, "streamcluster")
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range freshPoints {
		pl := q.placement(t)
		op := power.FrequencySet[q.fIdx]
		pred, err := eng.SpatialPredictPeakC(ctx, cfg.Benchmark, pl, op, q.p)
		if err != nil {
			t.Fatal(err)
		}
		rec, _, err := eng.Simulate(ctx, cfg.Benchmark, pl, op, q.p)
		if err != nil {
			t.Fatal(err)
		}
		cal, err := eng.SpatialCalibration(ctx, cfg.Benchmark, q.n)
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(pred - rec.PeakC); e > cal.WorstCaseErrC {
			t.Errorf("point %+v: |%.2f - %.2f| = %.2f °C exceeds the recorded bound %.2f",
				q, pred, rec.PeakC, e, cal.WorstCaseErrC)
		}
	}
}

// TestSpatialTierEscalatesNearThreshold pins the escalation contract: a
// prediction inside the margin must fall through to the exact full-path
// value, and one clearly outside must be answered spatially.
func TestSpatialTierEscalatesNearThreshold(t *testing.T) {
	cfg := fastConfig(t, "cholesky")
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pl, err := floorplan.PaperOrg(4, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	op := power.FrequencySet[1]
	const p = 128
	full, _, err := eng.Simulate(ctx, cfg.Benchmark, pl, op, p)
	if err != nil {
		t.Fatal(err)
	}

	// Threshold right at the simulated peak: the spatial (and scalar)
	// tiers must escalate, returning the bit-exact full value.
	near := EvalPolicy{ThresholdC: full.PeakC, ScalarMarginC: cfg.SurrogateMarginC, Spatial: true}
	peak, st, err := eng.PeakCPolicy(ctx, cfg.Benchmark, pl, op, p, near)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fidelity != FidelityFull || peak != full.PeakC {
		t.Fatalf("near-threshold eval answered by %v with %.4f, want full fidelity %.4f",
			st.Fidelity, peak, full.PeakC)
	}

	// Threshold far above every achievable temperature: the spatial tier
	// must answer without simulating.
	far := near
	far.ThresholdC = 200
	peak, st, err = eng.PeakCPolicy(ctx, cfg.Benchmark, pl, op, p, far)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fidelity != FidelitySpatial {
		t.Fatalf("far-threshold eval answered by %v, want spatial", st.Fidelity)
	}
	cal, err := eng.SpatialCalibration(ctx, cfg.Benchmark, pl.NumChiplets())
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(peak - full.PeakC); e > cal.WorstCaseErrC {
		t.Fatalf("spatial answer %.2f is %.2f °C from the simulation %.2f, beyond the bound %.2f",
			peak, e, full.PeakC, cal.WorstCaseErrC)
	}
	if eng.Stats().SpatialHits == 0 {
		t.Fatal("spatial hit not counted in engine stats")
	}
}

// TestSpatialSearchAgreesWithFullFidelity is the golden-corpus parity
// property from the fidelity-tier design: enabling the spatial tier must
// not change the search winner, only the work spent finding it.
func TestSpatialSearchAgreesWithFullFidelity(t *testing.T) {
	spatial := fastConfig(t, "streamcluster")
	spatial.SpatialSurrogate = true
	full := spatial
	full.SpatialSurrogate = false
	full.SurrogateMarginC = -1

	ss, err := NewSearcher(spatial)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ss.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	sf, err := NewSearcher(full)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := sf.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Best.Op != rf.Best.Op || rs.Best.ActiveCores != rf.Best.ActiveCores ||
		rs.Best.N != rf.Best.N || math.Abs(rs.Best.InterposerMM-rf.Best.InterposerMM) > 1e-9 {
		t.Fatalf("spatial tier changed the optimum: %+v vs %+v", rs.Best, rf.Best)
	}
	if rs.SpatialSurrogateHits == 0 {
		t.Error("spatial search never used the spatial tier")
	}
	if rs.SurrogateHits != rs.SpatialSurrogateHits+rs.ScalarSurrogateHits {
		t.Errorf("surrogate hit total %d != scalar %d + spatial %d",
			rs.SurrogateHits, rs.ScalarSurrogateHits, rs.SpatialSurrogateHits)
	}
	if ss.ThermalSims() >= sf.ThermalSims() {
		t.Errorf("spatial tier did not save simulations: %d vs %d (DoE included)",
			ss.ThermalSims(), sf.ThermalSims())
	}
}

func TestChipletActiveCounts(t *testing.T) {
	for _, r := range []int{1, 2, 4} {
		for _, p := range []int{1, 32, 96, 256} {
			counts, err := chipletActiveCounts(r, p)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0
			for i := 0; i < r*r; i++ {
				sum += counts[i]
			}
			if sum != p {
				t.Errorf("r=%d p=%d: counts sum to %d", r, p, sum)
			}
			for i := r * r; i < maxSpatialChiplets; i++ {
				if counts[i] != 0 {
					t.Errorf("r=%d p=%d: count %d spilled past the chiplet grid", r, p, counts[i])
				}
			}
		}
	}
	if _, err := chipletActiveCounts(3, 64); err == nil {
		t.Error("r=3: want an error (16 % 3 != 0)")
	}
	if _, err := chipletActiveCounts(5, 64); err == nil {
		t.Error("r=5: want an error (25 chiplets exceed the class ceiling)")
	}
}

// TestSpatialPredictZeroAllocWarm checks the steady-state promise: once the
// model is calibrated and the placement's kernel matrix cached, a
// prediction allocates nothing.
func TestSpatialPredictZeroAllocWarm(t *testing.T) {
	cfg := fastConfig(t, "cholesky")
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pl, err := floorplan.PaperOrg(16, 1, 1, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	op := power.FrequencySet[2]
	if _, err := eng.SpatialPredictPeakC(ctx, cfg.Benchmark, pl, op, 160); err != nil {
		t.Fatal(err)
	}
	model, err := eng.spatialFor(ctx, cfg.Benchmark, &EvalStats{})
	if err != nil {
		t.Fatal(err)
	}
	cls := model.classes[16]
	k := engineKey{bench: benchKeyOf(cfg.Benchmark), ek: evalKey{pl: keyOf(pl), fIdx: 2, cores: 160}}
	nocW, err := eng.nocPower(cfg.Benchmark, pl, op, 160, k)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := cls.predictPeakC(eng, cfg.Benchmark, pl, op, 160, nocW); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm spatial prediction allocates %.1f objects per run, want 0", allocs)
	}
}

// TestSearchUnderWeakCooling runs a search at a heat-transfer coefficient
// weak enough that the leakage loop runs away at high power (h = 200
// W/(m²·K) against the default 2800): the spatial DoE points of the 1- and
// 4-chiplet classes include runaways, and so do many search points. A
// runaway is an infeasible point, not a failed search: calibration keeps
// the runaway classes out of the spatial model, a runaway evaluates to
// +Inf, and the spatial search finds the optimum the full-fidelity search
// finds.
func TestSearchUnderWeakCooling(t *testing.T) {
	spatial := fastConfig(t, "cholesky")
	spatial.Thermal.HeatTransferCoeff = 200
	spatial.ChipletCounts = []int{4}
	spatial.Starts = 1
	spatial.SpatialSurrogate = true
	full := spatial
	full.SpatialSurrogate = false
	full.SurrogateMarginC = -1
	ctx := context.Background()

	eng, err := NewEngine(spatial)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4, 16} {
		_, err := eng.SpatialCalibration(ctx, spatial.Benchmark, n)
		if covered := err == nil; covered != (n == 16) {
			t.Errorf("class %d: calibration error %v; want only the 16-chiplet class covered", n, err)
		}
	}
	pl := floorplan.SingleChip()
	hot := power.FrequencySet[0]
	if _, _, err := eng.Simulate(ctx, spatial.Benchmark, pl, hot, 256); !isRunaway(err) {
		t.Fatalf("full simulation at h = 200, %g MHz, 256 cores: err = %v, want a runaway", hot.FreqMHz, err)
	}
	peak, st, err := eng.PeakCPolicy(ctx, spatial.Benchmark, pl, hot, 256, spatial.evalPolicy())
	if err != nil || !math.IsInf(peak, 1) {
		t.Fatalf("runaway point evaluates to (%g, %v), want (+Inf, nil)", peak, err)
	}
	if !strings.Contains(st.Reason, "runaway") {
		t.Errorf("runaway point's escalation reason %q does not name the runaway", st.Reason)
	}

	ss, err := NewSearcher(spatial)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ss.Optimize()
	if err != nil {
		t.Fatalf("spatial search under weak cooling: %v", err)
	}
	sf, err := NewSearcher(full)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := sf.Optimize()
	if err != nil {
		t.Fatalf("full-fidelity search under weak cooling: %v", err)
	}
	if !rs.Feasible || !rf.Feasible {
		t.Fatalf("no feasible organization under weak cooling (spatial %v, full %v)", rs.Feasible, rf.Feasible)
	}
	if rs.Best.Op != rf.Best.Op || rs.Best.ActiveCores != rf.Best.ActiveCores ||
		rs.Best.N != rf.Best.N || math.Abs(rs.Best.InterposerMM-rf.Best.InterposerMM) > 1e-9 {
		t.Errorf("spatial tier changed the optimum under weak cooling: %+v vs %+v", rs.Best, rf.Best)
	}
	if !(rs.Best.PeakC <= spatial.ThresholdC) {
		t.Errorf("best peak %g °C, want within the %g °C threshold", rs.Best.PeakC, spatial.ThresholdC)
	}
}
