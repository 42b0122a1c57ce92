package tsp

import (
	"testing"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/power"
	"chiplet25d/internal/thermal"
)

func modelFor(t *testing.T, pl floorplan.Placement) (*thermal.Model, []floorplan.Core) {
	t.Helper()
	stack, err := floorplan.BuildStack(pl)
	if err != nil {
		t.Fatal(err)
	}
	cfg := thermal.DefaultConfig()
	cfg.Nx, cfg.Ny = 16, 16
	m, err := thermal.NewModel(stack, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cores, err := pl.Cores()
	if err != nil {
		t.Fatal(err)
	}
	return m, cores
}

func TestSafePowerRejectsBadArgs(t *testing.T) {
	m, cores := modelFor(t, floorplan.SingleChip())
	if _, err := SafePower(m, cores, 0, 85, DefaultOptions()); err == nil {
		t.Errorf("expected error for zero cores")
	}
	if _, err := SafePower(m, cores, 64, 40, DefaultOptions()); err == nil {
		t.Errorf("expected error for threshold below ambient")
	}
}

func TestSafePowerRespectsThreshold(t *testing.T) {
	m, cores := modelFor(t, floorplan.SingleChip())
	b, err := SafePower(m, cores, 256, 85, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if b.PeakC > 85.01 {
		t.Fatalf("budget peak %.2f exceeds the threshold", b.PeakC)
	}
	if b.PerCoreW <= 0 || b.PerCoreW > 2 {
		t.Fatalf("256-core TSP %.3f W/core implausible for the single chip", b.PerCoreW)
	}
	// The single chip at 85 °C sustains roughly 230 W total.
	if b.TotalW < 150 || b.TotalW > 300 {
		t.Fatalf("256-core safe total %.1f W outside the plausible band", b.TotalW)
	}
}

// TSP's defining property: fewer active cores get a bigger per-core budget,
// and the total safe power grows with core count (spreading beats
// concentration).
func TestSafePowerCurveShape(t *testing.T) {
	m, cores := modelFor(t, floorplan.SingleChip())
	curve, err := Curve(m, cores, 85, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != len(power.ActiveCoreCounts) {
		t.Fatalf("curve has %d points", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].PerCoreW >= curve[i-1].PerCoreW {
			t.Errorf("per-core budget should fall with core count: %v -> %v",
				curve[i-1], curve[i])
		}
		// Total safe power grows toward a saturation plateau; near full
		// occupancy it may dip a few percent because MinTemp can no longer
		// keep the chip center dark.
		if curve[i].TotalW <= curve[i-1].TotalW*0.93 {
			t.Errorf("total safe power collapsed with core count: %v -> %v",
				curve[i-1], curve[i])
		}
	}
}

// A thermally-aware 2.5D organization raises TSP at every core count — the
// mechanism behind the paper's reclaimed dark silicon.
func TestSafePower25DHigher(t *testing.T) {
	m2d, cores2d := modelFor(t, floorplan.SingleChip())
	pl, err := floorplan.UniformGrid(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	m25, cores25 := modelFor(t, pl)
	for _, p := range []int{64, 256} {
		b2d, err := SafePower(m2d, cores2d, p, 85, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		b25, err := SafePower(m25, cores25, p, 85, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if b25.PerCoreW <= b2d.PerCoreW {
			t.Fatalf("p=%d: 2.5D TSP %.3f W/core should exceed 2D %.3f W/core",
				p, b25.PerCoreW, b2d.PerCoreW)
		}
	}
}

func TestSafePowerUnconstrainedCap(t *testing.T) {
	// With a huge threshold the bisection hits the cap instead of looping.
	m, cores := modelFor(t, floorplan.SingleChip())
	opts := DefaultOptions()
	opts.MaxPerCoreW = 0.5
	b, err := SafePower(m, cores, 32, 500, opts)
	if err != nil {
		t.Fatal(err)
	}
	if b.PerCoreW != 0.5 {
		t.Fatalf("expected the cap to bind, got %.3f", b.PerCoreW)
	}
}
