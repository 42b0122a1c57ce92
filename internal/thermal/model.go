// Package thermal implements a steady-state grid thermal simulator for
// layered 2D/2.5D package stacks, following the modeling approach of
// HotSpot's grid model (the tool the paper uses): every layer is discretized
// on a uniform grid with per-cell heterogeneous material properties taken
// from the floorplan, cells exchange heat laterally within a layer and
// vertically with the layers above and below, and the stack is capped by a
// copper heat spreader (edge 2x the package footprint) and a finned heat
// sink (edge 2x the spreader) that convects to ambient with a fixed heat
// transfer coefficient. The resulting sparse symmetric positive-definite
// system is solved with preconditioned conjugate gradients.
//
// Temperatures are in degrees Celsius, power in watts, plan geometry in
// millimeters (converted to SI internally).
package thermal

import (
	"fmt"
	"math"
	"sync"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/geom"
)

// Config holds solver and cooling-package parameters.
type Config struct {
	// Nx, Ny are the package grid dimensions. Both must be divisible by 4
	// so the 2x-spreader and 4x-sink grids nest exactly. The paper uses a
	// 64 x 64 grid.
	Nx, Ny int
	// AmbientC is the ambient temperature (the paper uses 45 °C).
	AmbientC float64
	// HeatTransferCoeff is the effective convection coefficient h in
	// W/(m²·K) from the sink's top surface. The paper keeps h constant as
	// the sink grows with the interposer (adjusting convective resistance).
	HeatTransferCoeff float64
	// BoardHeatTransferCoeff enables the secondary heat path: convection
	// from the substrate's bottom face to ambient (W/(m²·K)). Zero (the
	// default, matching HotSpot's default and the paper's setup) makes the
	// bottom adiabatic.
	BoardHeatTransferCoeff float64
	// SpreaderK and SinkK are the spreader/sink conductivities (copper).
	SpreaderK, SinkK float64
	// Tolerance is the relative residual target for the CG solve.
	Tolerance float64
	// MaxIterations bounds the CG solve.
	MaxIterations int
}

// DefaultConfig returns the evaluation configuration from Sec. IV: 64x64
// grid, 45 °C ambient, constant heat transfer coefficient. The coefficient
// is calibrated so the 256-core single chip running a high-power benchmark
// at 1 GHz lands well above the 85 °C threshold while large-interposer
// 16-chiplet organizations can pull it below (Fig. 5's shape).
func DefaultConfig() Config {
	return Config{
		Nx: 64, Ny: 64,
		AmbientC:          45,
		HeatTransferCoeff: 2800,
		SpreaderK:         400,
		SinkK:             400,
		Tolerance:         1e-7,
		MaxIterations:     20000,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nx <= 0 || c.Ny <= 0 || c.Nx%4 != 0 || c.Ny%4 != 0 {
		return fmt.Errorf("thermal: grid %dx%d must be positive and divisible by 4", c.Nx, c.Ny)
	}
	if c.HeatTransferCoeff <= 0 {
		return fmt.Errorf("thermal: heat transfer coefficient must be positive")
	}
	if c.BoardHeatTransferCoeff < 0 {
		return fmt.Errorf("thermal: board heat transfer coefficient must be non-negative")
	}
	if c.SpreaderK <= 0 || c.SinkK <= 0 {
		return fmt.Errorf("thermal: spreader/sink conductivity must be positive")
	}
	if c.Tolerance <= 0 || c.Tolerance >= 1 {
		return fmt.Errorf("thermal: tolerance %g outside (0,1)", c.Tolerance)
	}
	if c.MaxIterations <= 0 {
		return fmt.Errorf("thermal: max iterations must be positive")
	}
	return nil
}

// Model is an assembled thermal network for one stack geometry. It can be
// solved repeatedly for different power maps (e.g. across the
// leakage-temperature fixed point iteration) reusing the assembly.
type Model struct {
	cfg    Config
	stack  floorplan.Stack
	grid   geom.Grid // package grid (chip-layer coordinates)
	nLayer int       // package layers
	nCells int       // Nx*Ny
	nNodes int       // (nLayer+2)*nCells

	diag []float64 // diagonal of the conductance matrix
	// csr is the off-diagonal structure the solve kernel sweeps (see
	// csr.go), assembled in place by assembleCSR.
	csr *csrMatrix
	// convG is the per-sink-cell convection conductance (W/K); its sum
	// times (Tsink - Tamb) is the heat leaving the system.
	convG []float64
	// boardG is the per-substrate-cell conductance of the optional
	// secondary path to ambient (empty slice when disabled).
	boardG []float64

	sinkBase int // node index of the first sink node

	// Exactly one preconditioner runs a model's solves. mg is non-nil when
	// the grid rule chose multigrid and the hierarchy was buildable;
	// otherwise precond holds the IC(0) factorization, built only then (or
	// on demand by ForcePreconditionerForVerify). The transient solver
	// factors its own shifted IC(0) and needs neither.
	precond     *icPreconditioner
	mg          *mgPreconditioner
	precondName string

	// scratch pools the per-solve buffers this model shares with every
	// model of its shape (see scratchFor).
	scratch *scratch
}

// scratch recycles per-solve buffers: CG workspaces, solution vectors
// (fed by Result.Recycle) and leakage-loop sequences with their secant
// bases, so steady-state solves do no large allocations. All are safe for
// concurrent solves.
type scratch struct {
	ws  freeList[*workspace]
	x   freeList[[]float64]
	seq freeList[*Sequence]
}

// age ages the scratch's free lists after a garbage collection.
func (s *scratch) age() {
	s.ws.age()
	s.x.age()
	s.seq.age()
}

// scratchByShape maps a model shape, [nNodes, nCells], to its scratch.
var scratchByShape sync.Map

// scratchFor returns the scratch pools shared by all models with nNodes
// nodes and nCells chip cells. Every pooled buffer is overwritten before
// it is read, so sharing cannot change an answer; sharing by shape keeps
// idle scratch proportional to the solves running at once rather than to
// the models retained (up to 16 per engine ring, 8 engines per daemon).
func scratchFor(nNodes, nCells int) *scratch {
	key := [2]int{nNodes, nCells}
	if s, ok := scratchByShape.Load(key); ok {
		return s.(*scratch)
	}
	s, _ := scratchByShape.LoadOrStore(key, new(scratch))
	return s.(*scratch)
}

// Grid returns the package grid used for chip-layer power maps.
func (m *Model) Grid() geom.Grid { return m.grid }

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// Stack returns the stack the model was assembled from.
func (m *Model) Stack() floorplan.Stack { return m.stack }

// NumNodes returns the total node count of the network.
func (m *Model) NumNodes() int { return m.nNodes }

// ChipLayerOffset returns the node index of the first chip-layer cell.
func (m *Model) ChipLayerOffset() int { return m.stack.ChipLayer * m.nCells }

// NewModel assembles the thermal network for a stack.
func NewModel(stack floorplan.Stack, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := stack.Validate(); err != nil {
		return nil, err
	}
	g, err := geom.NewGrid(cfg.Nx, cfg.Ny, stack.W, stack.H)
	if err != nil {
		return nil, err
	}
	m := &Model{
		cfg:    cfg,
		stack:  stack,
		grid:   g,
		nLayer: len(stack.Layers),
		nCells: g.NumCells(),
	}
	m.nNodes = (m.nLayer + 2) * m.nCells
	m.sinkBase = (m.nLayer + 1) * m.nCells
	m.scratch = scratchFor(m.nNodes, m.nCells)
	m.diag = make([]float64, m.nNodes)
	m.convG = make([]float64, m.nCells)
	m.assemble()
	m.choosePreconditioner()
	return m, nil
}

// mgMinGridEdge is the smallest grid edge at which a model preconditions
// with multigrid rather than IC(0). DESIGN.md "Crossover" measures it: an
// MG iteration costs ~4x an IC(0) iteration and the hierarchy setup ~7x
// base assembly, so MG wins from 32x32 up (1.6x there, 3.6x at 64x64) and
// loses at 16x16. The choice is a function of Nx and Ny alone, which every
// cache key already carries, so it never forks an answer's identity.
const mgMinGridEdge = 32

// choosePreconditioner applies the grid rule: multigrid when both edges
// reach mgMinGridEdge and the coarsener accepts the geometry, IC(0)
// otherwise.
func (m *Model) choosePreconditioner() {
	if m.cfg.Nx >= mgMinGridEdge && m.cfg.Ny >= mgMinGridEdge && m.useMultigrid() {
		return
	}
	m.useIC0()
}

// useIC0 selects IC(0), factoring it on first use.
func (m *Model) useIC0() {
	if m.precond == nil {
		m.precond = newICFromCSR(m.nNodes, m.diag, m.csr)
	}
	m.mg, m.precondName = nil, PrecondIC0
}

// useMultigrid builds the multigrid hierarchy and selects it, leaving the
// current choice in place when the coarsener declines the geometry. It
// reports whether multigrid is in use.
func (m *Model) useMultigrid() bool {
	if mg := newMultigrid(m.nLayer+2, m.cfg.Nx, m.cfg.Ny, m.diag, m.csr); mg != nil {
		m.mg = mg
		m.precondName = PrecondMG
	}
	return m.mg != nil
}

// PreconditionerName reports the preconditioner the model's solves use:
// PrecondMG on grids of at least mgMinGridEdge per edge whose hierarchy
// was buildable, else PrecondIC0.
func (m *Model) PreconditionerName() string { return m.precondName }

// usableConductance reports whether a computed conductance enters the
// network; non-positive and non-finite values are dropped.
func usableConductance(g float64) bool {
	return g > 0 && !math.IsNaN(g) && !math.IsInf(g, 0)
}

// assemble builds the conductance matrix: the off-diagonal CSR with the
// link part of the diagonal (assembleCSR), then the boundary terms.
func (m *Model) assemble() {
	nc := m.nCells
	cw := m.grid.CellW() * 1e-3 // meters
	ch := m.grid.CellH() * 1e-3
	area := cw * ch

	// Rasterize every package layer's properties.
	props := make([][]floorplan.LayerProps, m.nLayer)
	for l, layer := range m.stack.Layers {
		props[l] = floorplan.RasterizeLayer(layer, m.grid)
	}
	m.csr = m.assembleCSR(props)

	// Convection from the sink's top surface to ambient: applied per sink
	// cell over its full area; equivalently a convective resistance
	// 1/(h*A_sink) kept proportional to sink area as in the paper.
	sinkCellArea := 16 * area
	for c := 0; c < nc; c++ {
		g := m.cfg.HeatTransferCoeff * sinkCellArea
		m.convG[c] = g
		m.diag[m.sinkBase+c] += g
	}

	// Optional secondary path: substrate bottom to ambient through half the
	// substrate thickness in series with board convection.
	if m.cfg.BoardHeatTransferCoeff > 0 {
		m.boardG = make([]float64, nc)
		t0 := m.stack.Layers[0].ThicknessM
		for c := 0; c < nc; c++ {
			r := 0.5*t0/(props[0][c].VertK*area) + 1/(m.cfg.BoardHeatTransferCoeff*area)
			m.boardG[c] = 1 / r
			m.diag[c] += m.boardG[c]
		}
	}
}

// forEachLink calls emit(a, b, g) for every symmetric conductance g
// between nodes a and b, in a fixed assembly order. g may be unusable
// (see usableConductance); emit decides.
func (m *Model) forEachLink(props [][]floorplan.LayerProps, emit func(a, b int, g float64)) {
	nx, ny := m.cfg.Nx, m.cfg.Ny
	nc := m.nCells
	cw := m.grid.CellW() * 1e-3 // meters
	ch := m.grid.CellH() * 1e-3
	area := cw * ch

	// Lateral conduction within each package layer.
	for l := 0; l < m.nLayer; l++ {
		t := m.stack.Layers[l].ThicknessM
		base := l * nc
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				c := m.grid.Index(ix, iy)
				if ix+1 < nx {
					c2 := m.grid.Index(ix+1, iy)
					r := 0.5*cw/(props[l][c].LatK*t*ch) + 0.5*cw/(props[l][c2].LatK*t*ch)
					emit(base+c, base+c2, 1/r)
				}
				if iy+1 < ny {
					c2 := m.grid.Index(ix, iy+1)
					r := 0.5*ch/(props[l][c].LatK*t*cw) + 0.5*ch/(props[l][c2].LatK*t*cw)
					emit(base+c, base+c2, 1/r)
				}
			}
		}
	}

	// Vertical conduction between adjacent package layers.
	for l := 0; l+1 < m.nLayer; l++ {
		tLo := m.stack.Layers[l].ThicknessM
		tHi := m.stack.Layers[l+1].ThicknessM
		for c := 0; c < nc; c++ {
			r := 0.5*tLo/(props[l][c].VertK*area) + 0.5*tHi/(props[l+1][c].VertK*area)
			emit(l*nc+c, (l+1)*nc+c, 1/r)
		}
	}

	// Spreader: 2x footprint edge, same node count, cells 2cw x 2ch. The
	// center quarter sits exactly above the package: package cell (ix, iy)
	// nests in spreader cell ((ix+nx/2)/2, (iy+ny/2)/2).
	sprBase := m.nLayer * nc
	tTop := m.stack.Layers[m.nLayer-1].ThicknessM
	kTop := props[m.nLayer-1]
	tSpr := floorplan.SpreaderThicknessM
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			c := m.grid.Index(ix, iy)
			sc := m.grid.Index((ix+nx/2)/2, (iy+ny/2)/2)
			r := 0.5*tTop/(kTop[c].VertK*area) + 0.5*tSpr/(m.cfg.SpreaderK*area)
			emit((m.nLayer-1)*nc+c, sprBase+sc, 1/r)
		}
	}
	// Spreader lateral conduction (cells 2cw x 2ch).
	m.uniformLateral(sprBase, 2*cw, 2*ch, tSpr, m.cfg.SpreaderK, emit)

	// Sink: 4x footprint edge, same node count, cells 4cw x 4ch. Spreader
	// cell (ix, iy) nests in sink cell ((ix+nx/2)/2, (iy+ny/2)/2).
	tSink := floorplan.SinkThicknessM
	sprArea := 4 * area
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			sc := m.grid.Index(ix, iy)
			kc := m.grid.Index((ix+nx/2)/2, (iy+ny/2)/2)
			r := 0.5*tSpr/(m.cfg.SpreaderK*sprArea) + 0.5*tSink/(m.cfg.SinkK*sprArea)
			emit(sprBase+sc, m.sinkBase+kc, 1/r)
		}
	}
	// Sink lateral conduction (cells 4cw x 4ch).
	m.uniformLateral(m.sinkBase, 4*cw, 4*ch, tSink, m.cfg.SinkK, emit)
}

// uniformLateral emits the lateral links of a homogeneous layer grid of
// nx x ny cells of size cw x ch (meters) starting at node index base.
func (m *Model) uniformLateral(base int, cw, ch, t, k float64, emit func(a, b int, g float64)) {
	nx, ny := m.cfg.Nx, m.cfg.Ny
	gx := k * t * ch / cw
	gy := k * t * cw / ch
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			c := m.grid.Index(ix, iy)
			if ix+1 < nx {
				emit(base+c, base+m.grid.Index(ix+1, iy), gx)
			}
			if iy+1 < ny {
				emit(base+c, base+m.grid.Index(ix, iy+1), gy)
			}
		}
	}
}

// Bytes returns the memory the model retains after assembly, counting
// every slice it keeps by capacity: the diagonal, the CSR off-diagonals,
// the boundary conductances and the preconditioner it solves with (IC(0)
// factors or the multigrid hierarchy, whichever was built). Pooled
// per-solve scratch is not counted: it is shared by every model of the
// same shape, and the garbage collector may drop it at any cycle.
func (m *Model) Bytes() int {
	return f64Bytes(m.diag) + m.csr.bytes() + f64Bytes(m.convG) + f64Bytes(m.boardG) +
		m.precond.bytes() + m.mg.bytes()
}

func f64Bytes(s []float64) int { return 8 * cap(s) }

func i32Bytes(s []int32) int { return 4 * cap(s) }

func (ic *icPreconditioner) bytes() int {
	if ic == nil {
		return 0
	}
	return i32Bytes(ic.rowPtr) + i32Bytes(ic.colIdx) + f64Bytes(ic.lval) + f64Bytes(ic.d) +
		f64Bytes(ic.dinv) + i32Bytes(ic.upPtr) + i32Bytes(ic.upCol) + f64Bytes(ic.upVal) +
		i32Bytes(ic.upPos)
}

func (mg *mgPreconditioner) bytes() int {
	if mg == nil {
		return 0
	}
	n := 0
	for i := range mg.levels {
		lv := &mg.levels[i]
		if i > 0 { // level 0 shares the model's diagonal and CSR
			n += f64Bytes(lv.diag) + lv.mat.bytes()
		}
		n += f64Bytes(lv.dinv) + lv.down.bytes() + lv.line.bytes()
	}
	if mg.coarse != nil {
		n += f64Bytes(mg.coarse.l)
	}
	return n
}

func (ls *lineSmoother) bytes() int {
	if ls == nil {
		return 0
	}
	return f64Bytes(ls.mz) + f64Bytes(ls.dinvz) +
		ls.lbz.bytes() + ls.uz.bytes() + ls.lb.bytes() + ls.ub.bytes()
}
