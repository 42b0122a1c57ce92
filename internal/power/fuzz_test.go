package power

import (
	"errors"
	"math"
	"strings"
	"testing"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/thermal"
)

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkFuzzRunaway holds a RunawayError to its definition: either its last
// pass left a non-finite temperature, or the loop took every pass with the
// per-pass change still growing. In the second case the plain
// warm-started loop must agree: it also takes every pass (or fails on the
// non-finite power a runaway produces) and ends at the same peak to solver
// tolerance.
func checkFuzzRunaway(t *testing.T, c fuzzSimCase, m *thermal.Model, runaway *RunawayError, plain *SimResult, plainErr error) {
	if !c.feedback {
		t.Fatalf("%+v: runaway reported without leakage feedback: %v", c, runaway)
	}
	if !finite(runaway.PeakC) || !finite(runaway.DeltaC) {
		return
	}
	if runaway.Passes != c.maxIter || !(runaway.DeltaC > runaway.PrevDeltaC) {
		t.Fatalf("%+v: finite runaway %+v without all %d passes and a growing change", c, runaway, c.maxIter)
	}
	if plainErr != nil {
		if !strings.HasPrefix(plainErr.Error(), "thermal: ") {
			t.Fatalf("%+v: runaway %v, plain loop failed outside the thermal package: %v", c, runaway, plainErr)
		}
		return
	}
	if plain.Iterations != c.maxIter {
		t.Fatalf("%+v: runaway %v, but the plain warm-started loop converged in %d passes", c, runaway, plain.Iterations)
	}
	rise := math.Max(plain.PeakC-m.Config().AmbientC, 1)
	if d := math.Abs(runaway.PeakC - plain.PeakC); d > 1e-5*rise {
		t.Fatalf("%+v: runaway peak %.9g °C, plain warm-started loop %.9g °C", c, runaway.PeakC, plain.PeakC)
	}
}

// fuzzSimCase maps raw fuzz inputs onto a valid but extreme simulation:
// grids 4 to 32, a heat-transfer coefficient from 1 to 1e6 W/(m²·K)
// (log-uniform), 0 to 50 W per core, 0 to 256 MinTemp-ordered active
// cores, 1 to 12 leakage passes, with or without leakage feedback, on a
// single chip or 2x2 / 4x4 chiplets at 0 to 10 mm spacing.
type fuzzSimCase struct {
	n        int
	h        float64
	coreW    float64
	active   int
	maxIter  int
	feedback bool
	r        int
	spacing  float64
}

func newFuzzSimCase(grid, layout uint8, hExp, coreW, spacing float64, active uint16, maxIter uint8, noFeedback bool) fuzzSimCase {
	unit := func(v float64) float64 { // fold any float into [0, 1]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		v = math.Abs(v)
		return v - math.Floor(v)
	}
	c := fuzzSimCase{
		n:        4 * (1 + int(grid%8)),
		h:        math.Pow(10, 6*unit(hExp)),
		coreW:    50 * unit(coreW),
		active:   int(active % (floorplan.NumCores + 1)),
		maxIter:  1 + int(maxIter%12),
		feedback: !noFeedback,
		r:        []int{1, 2, 4}[layout%3],
		spacing:  10 * unit(spacing),
	}
	return c
}

// fuzzCGTol is the CG tolerance the fuzz models solve to. The stopping
// rule is relative to the whole right-hand side, which at h ≈ 1e6 is
// dominated by the ambient boundary terms, so at the production 1e-7 the
// temperature rise itself is resolved only to ~1e-3 relative there; at
// 1e-10 "agrees to solver tolerance" is tight on every input.
const fuzzCGTol = 1e-10

// fuzzBelowAmbientC is how far below ambient round-off may leave a node:
// at h ≈ 1 the zero-power system is nearly singular and CG at fuzzCGTol
// iterates on round-off, leaving nodes ~5e-9 °C off ambient. The bound is
// verify's MaxPrincipleTolC.
const fuzzBelowAmbientC = 1e-6

// run builds the case's model and simulates it twice: through Simulate
// (secant-seeded passes) and through plainSimulate (each pass warm-started
// from the previous field alone). The plain loop also runs when Simulate
// reports a runaway, so the oracle can confirm it; plainErr is its error
// then.
func (c fuzzSimCase) run(t *testing.T) (got, plain *SimResult, m *thermal.Model, err, plainErr error) {
	pl := floorplan.SingleChip()
	if c.r > 1 {
		if pl, err = floorplan.UniformGrid(c.r, c.spacing); err != nil {
			t.Fatalf("%+v: placement: %v", c, err)
		}
	}
	stack, err := floorplan.BuildStack(pl)
	if err != nil {
		t.Fatalf("%+v: stack: %v", c, err)
	}
	cfg := thermal.DefaultConfig()
	cfg.Nx, cfg.Ny = c.n, c.n
	cfg.HeatTransferCoeff = c.h
	cfg.Tolerance = fuzzCGTol
	if m, err = thermal.NewModel(stack, cfg); err != nil {
		t.Fatalf("%+v: model: %v", c, err)
	}
	cores, err := pl.Cores()
	if err != nil {
		t.Fatalf("%+v: cores: %v", c, err)
	}
	mask, err := MintempActive(c.active)
	if err != nil {
		t.Fatalf("%+v: mask: %v", c, err)
	}
	w := Workload{RefCoreW: c.coreW, Op: NominalPoint, Active: mask, NoCW: 3.9, Leakage: DefaultLeakage()}
	opts := DefaultSimOptions()
	opts.MaxIterations = c.maxIter
	opts.DisableLeakageFeedback = !c.feedback
	got, err = Simulate(m, cores, w, opts)
	var runaway *RunawayError
	if err != nil && !errors.As(err, &runaway) {
		return nil, nil, m, err, nil
	}
	plain, plainErr = plainSimulate(m, cores, w, opts)
	if err == nil && plainErr != nil {
		t.Fatalf("%+v: Simulate answered but the plain loop failed: %v", c, plainErr)
	}
	return got, plain, m, err, plainErr
}

// solverSlackW bounds the energy-balance error the CG stopping rule
// allows on model m at total power p: heat out minus power in is the sum
// of the final residual's entries, at most √n·‖r‖ ≤ √n·tol·‖b‖, and
// ‖b‖² ≤ p² + Σ (g_c·T_amb)² over the sink cells' convection terms.
func solverSlackW(m *thermal.Model, p float64) float64 {
	cfg, st := m.Config(), m.Stack()
	cellArea := st.W / float64(cfg.Nx) * 1e-3 * st.H / float64(cfg.Ny) * 1e-3
	g := cfg.HeatTransferCoeff * 16 * cellArea
	nc := float64(cfg.Nx * cfg.Ny)
	b := math.Sqrt(p*p + nc*(g*cfg.AmbientC)*(g*cfg.AmbientC))
	return math.Sqrt(float64(m.NumNodes())) * cfg.Tolerance * b
}

// checkFuzzSim is the oracle: a clean package error, or a finite answer
// that conserves energy, never dips below ambient, and agrees with the
// plain warm-started loop to solver tolerance.
func checkFuzzSim(t *testing.T, c fuzzSimCase) {
	got, plain, m, err, plainErr := c.run(t)
	var runaway *RunawayError
	if errors.As(err, &runaway) {
		checkFuzzRunaway(t, c, m, runaway, plain, plainErr)
		return
	}
	if err != nil {
		if !strings.HasPrefix(err.Error(), "power: ") && !strings.HasPrefix(err.Error(), "thermal: ") {
			t.Fatalf("%+v: error outside the power/thermal packages: %v", c, err)
		}
		return
	}
	if !finite(got.PeakC) || !finite(got.TotalPowerW) {
		t.Fatalf("%+v: non-finite answer: peak %v, power %v", c, got.PeakC, got.TotalPowerW)
	}
	for i, tc := range got.CoreTemps {
		if !finite(tc) {
			t.Fatalf("%+v: core %d temperature %v", c, i, tc)
		}
	}
	ambient := m.Config().AmbientC
	slack := solverSlackW(m, got.TotalPowerW)
	if heat := got.Thermal.HeatOutW(); math.Abs(heat-got.TotalPowerW) > slack {
		t.Fatalf("%+v: heat out %.9g W, total power %.9g W, solver slack %.3g W", c, heat, got.TotalPowerW, slack)
	}
	if got.PeakC < ambient-fuzzBelowAmbientC {
		t.Fatalf("%+v: peak %.17g °C below ambient %g", c, got.PeakC, ambient)
	}
	if got.Iterations != plain.Iterations {
		t.Fatalf("%+v: %d leakage passes, plain warm-started loop %d", c, got.Iterations, plain.Iterations)
	}
	rise := math.Max(plain.PeakC-ambient, 1)
	if d := math.Abs(got.PeakC - plain.PeakC); d > 1e-5*rise {
		t.Fatalf("%+v: peak %.9g °C, plain warm-started loop %.9g °C", c, got.PeakC, plain.PeakC)
	}
	if d := math.Abs(got.TotalPowerW - plain.TotalPowerW); d > 1e-5*plain.TotalPowerW+1e-9 {
		t.Fatalf("%+v: power %.9g W, plain warm-started loop %.9g W", c, got.TotalPowerW, plain.TotalPowerW)
	}
}

// FuzzSimulate drives the leakage loop with valid but extreme inputs (see
// fuzzSimCase) and holds every answer to checkFuzzSim's oracle.
func FuzzSimulate(f *testing.F) {
	f.Add(uint8(3), uint8(2), 0.5745, 0.035, 0.2, uint16(256), uint8(11), false) // grid 16, 4x4, h≈2800, 1.75 W
	f.Add(uint8(7), uint8(0), 0.0, 1.0, 0.0, uint16(256), uint8(11), false)      // grid 32, h = 1, 50 W: runaway
	f.Add(uint8(0), uint8(1), 0.9999, 0.5, 1.0, uint16(1), uint8(0), true)       // grid 4, h ≈ 1e6, one core
	f.Add(uint8(1), uint8(2), 0.3, 0.0, 0.5, uint16(0), uint8(5), false)         // zero power, no cores
	f.Add(uint8(5), uint8(1), 0.1, 0.9, 0.05, uint16(128), uint8(3), false)
	f.Fuzz(func(t *testing.T, grid, layout uint8, hExp, coreW, spacing float64, active uint16, maxIter uint8, noFeedback bool) {
		checkFuzzSim(t, newFuzzSimCase(grid, layout, hExp, coreW, spacing, active, maxIter, noFeedback))
	})
}
