package thermal

import (
	"context"
	"fmt"
	"math"

	"chiplet25d/internal/floorplan"
)

// Transient simulation: the steady-state conductance network is augmented
// with per-node thermal capacitances (from the layers' volumetric heat
// capacities) and integrated with the unconditionally stable backward Euler
// scheme:
//
//	(C/Δt + G) · T(t+Δt) = C/Δt · T(t) + P(t)
//
// Each step solves the shifted SPD system with the same preconditioned
// conjugate gradient machinery as the steady state (the IC(0) factors are
// rebuilt once per TransientSolver for the shifted matrix). This supports
// computational-sprinting style studies: how long a configuration may
// exceed its steady-state envelope before reaching the threshold.

// TransientSolver integrates a model's temperature field over time with a
// fixed step. It owns a persistent solver workspace, so stepping allocates
// nothing; one TransientSolver must not be stepped concurrently.
type TransientSolver struct {
	m  *Model
	dt float64 // seconds

	capOverDt []float64 // C_i/Δt per node
	diag      []float64 // shifted diagonal: G_ii + C_i/Δt
	precond   *icPreconditioner
	ws        *workspace

	// T is the current temperature field (°C).
	T []float64
	// Elapsed is the simulated time (s).
	Elapsed float64
}

// NewTransientSolver prepares a transient integration with time step dt
// (seconds), starting from the ambient temperature.
func (m *Model) NewTransientSolver(dt float64) (*TransientSolver, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("thermal: time step must be positive, got %g", dt)
	}
	ts := &TransientSolver{m: m, dt: dt}
	ts.capOverDt = m.nodeCapacitances()
	for i := range ts.capOverDt {
		ts.capOverDt[i] /= dt
	}
	ts.diag = make([]float64, m.nNodes)
	for i, d := range m.diag {
		ts.diag[i] = d + ts.capOverDt[i]
	}
	// The shifted system shares the model's CSR off-diagonals; only the
	// diagonal and its IC(0) factorization differ.
	ts.precond = newICFromCSR(m.nNodes, ts.diag, m.csr)
	ts.ws = &workspace{
		r: make([]float64, m.nNodes), z: make([]float64, m.nNodes),
		p: make([]float64, m.nNodes), ap: make([]float64, m.nNodes),
		rhs:   make([]float64, m.nNodes),
		parts: make([]float64, numStripes(m.nNodes)),
	}
	ts.T = make([]float64, m.nNodes)
	for i := range ts.T {
		ts.T[i] = m.cfg.AmbientC
	}
	return ts, nil
}

// nodeCapacitances returns the lumped thermal capacitance (J/K) of every
// node: cell volume times volumetric heat capacity for package layers, and
// copper capacitance for the spreader and sink cells.
func (m *Model) nodeCapacitances() []float64 {
	caps := make([]float64, m.nNodes)
	cw := m.grid.CellW() * 1e-3
	ch := m.grid.CellH() * 1e-3
	area := cw * ch
	for l, layer := range m.stack.Layers {
		props := floorplan.RasterizeLayer(layer, m.grid)
		for c := 0; c < m.nCells; c++ {
			caps[l*m.nCells+c] = props[c].VolHeatCap * area * layer.ThicknessM
		}
	}
	// Spreader cells: 2x2 package-cell footprint; sink cells: 4x4. Copper
	// volumetric heat capacity.
	const cuCap = 3.55e6
	sprBase := m.nLayer * m.nCells
	for c := 0; c < m.nCells; c++ {
		caps[sprBase+c] = cuCap * 4 * area * floorplan.SpreaderThicknessM
		caps[m.sinkBase+c] = cuCap * 16 * area * floorplan.SinkThicknessM
	}
	return caps
}

// Step advances the field by one time step under the given chip-layer power
// map (watts per cell, length Nx*Ny) and returns the new peak chip
// temperature.
func (ts *TransientSolver) Step(chipPower []float64) (float64, error) {
	m := ts.m
	if len(chipPower) != m.nCells {
		return 0, fmt.Errorf("thermal: power map has %d cells, model grid has %d", len(chipPower), m.nCells)
	}
	rhs := ts.ws.rhs
	for i := range rhs {
		rhs[i] = 0
	}
	chipBase := m.ChipLayerOffset()
	for c, p := range chipPower {
		if p < 0 {
			return 0, fmt.Errorf("thermal: negative power %g at cell %d", p, c)
		}
		rhs[chipBase+c] = p
	}
	m.addBoundaryRHS(rhs)
	for i := 0; i < m.nNodes; i++ {
		rhs[i] += ts.capOverDt[i] * ts.T[i]
	}
	sys := cgSystem{
		diag: ts.diag, mat: m.csr, pre: ts.precond,
		tol: m.cfg.Tolerance, maxIter: m.cfg.MaxIterations,
	}
	if _, err := pcgSolve(context.Background(), &sys, ts.ws, ts.T, rhs); err != nil {
		return 0, fmt.Errorf("thermal: transient step: %w", err)
	}
	ts.Elapsed += ts.dt
	return ts.PeakC(), nil
}

// PeakC returns the current peak chip-layer temperature.
func (ts *TransientSolver) PeakC() float64 {
	off := ts.m.ChipLayerOffset()
	peak := math.Inf(-1)
	for _, t := range ts.T[off : off+ts.m.nCells] {
		if t > peak {
			peak = t
		}
	}
	return peak
}

// ChipT returns the current chip-layer temperatures (aliased).
func (ts *TransientSolver) ChipT() []float64 {
	off := ts.m.ChipLayerOffset()
	return ts.T[off : off+ts.m.nCells]
}
