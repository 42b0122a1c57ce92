package power

import (
	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/thermal"
)

// Sprint integrates the transient thermal response of m with step dt from
// the idle (ambient) state while every core in cores runs at the nominal
// DVFS point: refCoreW of core power, with leakage (DefaultLeakage)
// re-evaluated at the core's current cell temperature each step, plus
// nocPerCoreW of NoC power. It returns the time until the peak chip
// temperature reaches thresholdC, or maxTime and sustained = true when the
// peak stays below it for the whole horizon.
func Sprint(m *thermal.Model, cores []floorplan.Core, refCoreW, nocPerCoreW, thresholdC, maxTime, dt float64) (seconds float64, sustained bool, err error) {
	lm := DefaultLeakage()
	ts, err := m.NewTransientSolver(dt)
	if err != nil {
		return 0, false, err
	}
	grid := m.Grid()
	for ts.Elapsed < maxTime {
		pmap := make([]float64, grid.NumCells())
		chip := ts.ChipT()
		for _, c := range cores {
			cx, cy := c.Rect.Center()
			ix, iy := grid.CellAt(cx, cy)
			tC := chip[grid.Index(ix, iy)]
			grid.RasterizeAdd(pmap, c.Rect, CorePower(refCoreW, NominalPoint, tC, lm)+nocPerCoreW)
		}
		peak, err := ts.Step(pmap)
		if err != nil {
			return 0, false, err
		}
		if peak >= thresholdC {
			return ts.Elapsed, false, nil
		}
	}
	return maxTime, true, nil
}
