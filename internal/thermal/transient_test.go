package thermal

import (
	"math"
	"testing"

	"chiplet25d/internal/floorplan"
)

func uniformGridPlacement(r int, spacing float64) (floorplan.Placement, error) {
	return floorplan.UniformGrid(r, spacing)
}

func modelFor(pl floorplan.Placement, cfg Config) (*Model, error) {
	stack, err := floorplan.BuildStack(pl)
	if err != nil {
		return nil, err
	}
	return NewModel(stack, cfg)
}

func TestTransientRejectsBadArgs(t *testing.T) {
	m := singleChipModel(t, 16)
	if _, err := m.NewTransientSolver(0); err == nil {
		t.Errorf("expected error for zero time step")
	}
	ts, err := m.NewTransientSolver(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Step(make([]float64, 3)); err == nil {
		t.Errorf("expected error for wrong power map length")
	}
	bad := make([]float64, m.Grid().NumCells())
	bad[0] = -1
	if _, err := ts.Step(bad); err == nil {
		t.Errorf("expected error for negative power")
	}
}

func TestTransientStartsAtAmbient(t *testing.T) {
	m := singleChipModel(t, 16)
	ts, err := m.NewTransientSolver(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ts.PeakC()-m.Config().AmbientC) > 1e-9 {
		t.Fatalf("initial peak %.3f, want ambient", ts.PeakC())
	}
	chip := ts.ChipT()
	if len(chip) != m.Grid().NumCells() {
		t.Fatalf("ChipT has %d cells, want %d", len(chip), m.Grid().NumCells())
	}
	for i, v := range chip {
		if v != m.Config().AmbientC {
			t.Fatalf("chip cell %d starts at %.3f, want ambient", i, v)
		}
	}
}

// Temperature under constant power must rise monotonically and converge to
// the steady-state solution.
func TestTransientConvergesToSteadyState(t *testing.T) {
	m := singleChipModel(t, 16)
	p := uniformChipPower(m, 300)
	steady, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := m.NewTransientSolver(0.5)
	if err != nil {
		t.Fatal(err)
	}
	prev := ts.PeakC()
	for i := 0; i < 600; i++ {
		peak, err := ts.Step(p)
		if err != nil {
			t.Fatal(err)
		}
		if peak < prev-1e-6 {
			t.Fatalf("step %d: peak fell from %.4f to %.4f under constant power", i, prev, peak)
		}
		prev = peak
	}
	if d := math.Abs(ts.PeakC() - steady.PeakC()); d > 0.5 {
		t.Fatalf("transient peak %.2f did not converge to steady %.2f (Δ=%.2f)",
			ts.PeakC(), steady.PeakC(), d)
	}
}

// Power removed: the field must decay back toward ambient.
func TestTransientCoolsDown(t *testing.T) {
	m := singleChipModel(t, 16)
	p := uniformChipPower(m, 300)
	ts, err := m.NewTransientSolver(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := ts.Step(p); err != nil {
			t.Fatal(err)
		}
	}
	hot := ts.PeakC()
	zero := make([]float64, m.Grid().NumCells())
	for i := 0; i < 100; i++ {
		if _, err := ts.Step(zero); err != nil {
			t.Fatal(err)
		}
	}
	if ts.PeakC() >= hot {
		t.Fatalf("field did not cool: %.2f -> %.2f", hot, ts.PeakC())
	}
	for i := 0; i < 2000; i++ {
		if _, err := ts.Step(zero); err != nil {
			t.Fatal(err)
		}
	}
	if d := ts.PeakC() - m.Config().AmbientC; d > 1 {
		t.Fatalf("field stuck %.2f °C above ambient after long decay", d)
	}
}

// A smaller time step must not change the long-run answer materially
// (backward Euler consistency).
func TestTransientStepSizeConsistency(t *testing.T) {
	m := singleChipModel(t, 16)
	p := uniformChipPower(m, 250)
	peakAt := func(dt float64, steps int) float64 {
		ts, err := m.NewTransientSolver(dt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			if _, err := ts.Step(p); err != nil {
				t.Fatal(err)
			}
		}
		return ts.PeakC()
	}
	coarse := peakAt(0.2, 50) // 10 s
	fine := peakAt(0.05, 200) // 10 s
	if d := math.Abs(coarse - fine); d > 1.5 {
		t.Fatalf("time-step sensitivity too high: %.2f vs %.2f", coarse, fine)
	}
}

// Sprinting headroom: starting from the idle state, a 2.5D spread system
// must sustain an over-envelope power burst longer than the single chip.
func TestTransientSprintHeadroom(t *testing.T) {
	sprintTime := func(m *Model) float64 {
		ts, err := m.NewTransientSolver(0.1)
		if err != nil {
			t.Fatal(err)
		}
		p := uniformChipPower(m, 500) // well above the 85 °C envelope for 2D
		for ts.Elapsed < 120 {
			peak, err := ts.Step(p)
			if err != nil {
				t.Fatal(err)
			}
			if peak >= 85 {
				return ts.Elapsed
			}
		}
		return 120
	}
	m2d := singleChipModel(t, 16)
	pl, err := uniformGridPlacement(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	m25, err := modelFor(pl, testConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	t2d := sprintTime(m2d)
	t25 := sprintTime(m25)
	if t25 <= t2d {
		t.Fatalf("2.5D sprint time %.1f s should exceed 2D %.1f s", t25, t2d)
	}
}
