package power

import (
	"testing"

	"chiplet25d/internal/floorplan"
)

// A full-throttle burst from idle must reach the threshold on the single
// chip and last longer on a spread 2.5D organization, which at 8 mm
// spacing sustains it for the whole horizon.
func TestSprintSpreadOutlastsSingleChip(t *testing.T) {
	const (
		refCoreW   = 1.2
		nocPerCore = 0.02
		thresholdC = 85
		maxTime    = 20
		dt         = 0.25
	)
	m2d, cores2d := simModel(t, floorplan.SingleChip())
	s2d, sustained, err := Sprint(m2d, cores2d, refCoreW, nocPerCore, thresholdC, maxTime, dt)
	if err != nil {
		t.Fatal(err)
	}
	if sustained || s2d <= 0 || s2d >= maxTime {
		t.Fatalf("single chip: sprint %.2f s (sustained %v), want a threshold crossing inside %d s", s2d, sustained, maxTime)
	}
	pl, err := floorplan.UniformGrid(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	m25, cores25 := simModel(t, pl)
	s25, sustained, err := Sprint(m25, cores25, refCoreW, nocPerCore, thresholdC, maxTime, dt)
	if err != nil {
		t.Fatal(err)
	}
	if !sustained || s25 != maxTime {
		t.Fatalf("16 chiplets at 8 mm: sprint %.2f s (sustained %v), want the full %d s horizon", s25, sustained, maxTime)
	}
	if _, _, err := Sprint(m2d, cores2d, refCoreW, nocPerCore, thresholdC, maxTime, 0); err == nil {
		t.Error("expected an error for a non-positive time step")
	}
}
