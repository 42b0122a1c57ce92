package thermal

import (
	"context"
	"fmt"
	"math"

	"chiplet25d/internal/geom"
	"chiplet25d/internal/obs"
)

// Result is a solved steady-state temperature field.
type Result struct {
	// T holds all node temperatures in °C, ordered as in the model
	// (package layers bottom-up, then spreader, then sink).
	T []float64
	// Iterations is the number of CG iterations the solve used.
	Iterations int
	// Residual is the final relative residual.
	Residual float64

	model *Model
}

// Recycle returns the result's temperature buffer to the model's scratch
// pool so a later solve can reuse it without allocating. The result must
// not be used afterward. Steady-state serving loops (the leakage fixed
// point, chipletd's solve path) call this on every superseded result to
// keep warm solves allocation-free; callers that retain the result simply
// never recycle it. Safe to call at most once; nil-model (already
// recycled) calls are no-ops.
func (r *Result) Recycle() {
	m := r.model
	if m == nil || r.T == nil {
		return
	}
	t := r.T
	r.model = nil
	r.T = nil
	if len(t) == m.nNodes {
		m.scratch.x.put(t)
	}
}

// ChipT returns the chip-layer cell temperatures (length Nx*Ny), aliasing
// the result's storage.
func (r *Result) ChipT() []float64 {
	off := r.model.ChipLayerOffset()
	return r.T[off : off+r.model.nCells]
}

// PeakC returns the maximum chip-layer temperature, the quantity constrained
// by Eq. (6).
func (r *Result) PeakC() float64 {
	peak := math.Inf(-1)
	for _, t := range r.ChipT() {
		if t > peak {
			peak = t
		}
	}
	return peak
}

// MaxOverRect returns the maximum chip-layer temperature over the cells
// whose centers fall inside the given rectangle (mm, package coordinates).
func (r *Result) MaxOverRect(rc geom.Rect) float64 {
	return r.overRect(rc, true)
}

// AvgOverRect returns the mean chip-layer temperature over the cells whose
// centers fall inside the given rectangle.
func (r *Result) AvgOverRect(rc geom.Rect) float64 {
	return r.overRect(rc, false)
}

func (r *Result) overRect(rc geom.Rect, max bool) float64 {
	g := r.model.grid
	chip := r.ChipT()
	best := math.Inf(-1)
	sum, n := 0.0, 0
	// Only cells in the rectangle's cell box, widened by one cell each way,
	// can have their centers inside it (within geom.Eps), so the scan
	// visits the same contained cells in the same order as a full sweep.
	ix0, ix1 := cellSpan(rc.X, rc.MaxX(), g.CellW(), g.Nx)
	iy0, iy1 := cellSpan(rc.Y, rc.MaxY(), g.CellH(), g.Ny)
	for iy := iy0; iy <= iy1; iy++ {
		for ix := ix0; ix <= ix1; ix++ {
			cx, cy := g.CellRect(ix, iy).Center()
			if !rc.ContainsPoint(cx, cy) {
				continue
			}
			t := chip[g.Index(ix, iy)]
			if t > best {
				best = t
			}
			sum += t
			n++
		}
	}
	if n == 0 {
		// Rectangle smaller than a cell: fall back to the containing cell.
		cx, cy := rc.Center()
		ix, iy := g.CellAt(cx, cy)
		return chip[g.Index(ix, iy)]
	}
	if max {
		return best
	}
	return sum / float64(n)
}

// cellSpan returns the cell indices [i0, i1] covering [lo, hi] along one
// axis of n cells of size cell, widened by one cell each way and clamped
// to the grid (i0 > i1 when nothing remains).
func cellSpan(lo, hi, cell float64, n int) (i0, i1 int) {
	clamp := func(v, a, b float64) int { return int(math.Min(b, math.Max(a, v))) }
	return clamp(math.Floor(lo/cell)-1, 0, float64(n)), clamp(math.Floor(hi/cell)+1, -1, float64(n-1))
}

// HeatOutW returns the total heat leaving through the sink's convection
// boundary, which at steady state must equal the injected power.
func (r *Result) HeatOutW() float64 {
	m := r.model
	out := 0.0
	for c := 0; c < m.nCells; c++ {
		out += m.convG[c] * (r.T[m.sinkBase+c] - m.cfg.AmbientC)
	}
	for c, g := range m.boardG {
		out += g * (r.T[c] - m.cfg.AmbientC)
	}
	return out
}

// LayerT returns the temperatures of one package layer's cells (aliasing
// the result's storage).
func (r *Result) LayerT(layer int) ([]float64, error) {
	if layer < 0 || layer >= r.model.nLayer {
		return nil, fmt.Errorf("thermal: layer %d out of range [0,%d)", layer, r.model.nLayer)
	}
	return r.T[layer*r.model.nCells : (layer+1)*r.model.nCells], nil
}

// PeakOverLayers returns the maximum temperature over the given package
// layers (e.g. all CMOS levels of a 3D stack).
func (r *Result) PeakOverLayers(layers []int) (float64, error) {
	peak := math.Inf(-1)
	for _, l := range layers {
		lt, err := r.LayerT(l)
		if err != nil {
			return 0, err
		}
		for _, t := range lt {
			if t > peak {
				peak = t
			}
		}
	}
	return peak, nil
}

// workspace holds the per-solve scratch vectors of the CG iteration plus
// the RHS assembly buffer and the per-stripe partial-sum slots. Workspaces
// are pooled (see scratchFor) so steady-state serving does zero large
// allocations per solve.
type workspace struct {
	r, z, p, ap []float64
	rhs         []float64
	parts       []float64
	// mg is the multigrid V-cycle scratch (see mgPreconditioner.scratchFor),
	// nil until a multigrid solve first uses the workspace.
	mg *mgScratch
}

// getWorkspace fetches a pooled workspace (or allocates the first one).
func (m *Model) getWorkspace() *workspace {
	if ws, ok := m.scratch.ws.get(); ok {
		return ws
	}
	n := m.nNodes
	return &workspace{
		r: make([]float64, n), z: make([]float64, n),
		p: make([]float64, n), ap: make([]float64, n),
		rhs:   make([]float64, n),
		parts: make([]float64, numStripes(n)),
	}
}

func (m *Model) putWorkspace(ws *workspace) { m.scratch.ws.put(ws) }

// getX fetches a solution vector from the pool fed by Result.Recycle.
func (m *Model) getX() []float64 {
	if x, ok := m.scratch.x.get(); ok {
		return x
	}
	return make([]float64, m.nNodes)
}

// Solve computes the steady-state temperature field for the given
// chip-layer power map (watts per package-grid cell, length Nx*Ny).
func (m *Model) Solve(chipPower []float64) (*Result, error) {
	return m.SolveWarm(chipPower, nil)
}

// SolveCtx is Solve with cooperative cancellation: the CG iteration checks
// ctx periodically and aborts with ctx's error once it is done.
func (m *Model) SolveCtx(ctx context.Context, chipPower []float64) (*Result, error) {
	return m.SolveWarmCtx(ctx, chipPower, nil)
}

// SolveWarm is Solve with a warm start from a previous result for the same
// model (pass nil for a cold start from ambient).
func (m *Model) SolveWarm(chipPower []float64, prev *Result) (*Result, error) {
	return m.SolveWarmCtx(context.Background(), chipPower, prev)
}

// SolveWarmCtx is SolveWarm with cooperative cancellation (see SolveCtx).
func (m *Model) SolveWarmCtx(ctx context.Context, chipPower []float64, prev *Result) (*Result, error) {
	var seed []float64
	if prev != nil {
		seed = prev.T
	}
	return m.SolveSeededCtx(ctx, chipPower, seed)
}

// SolveSeeded is Solve with the CG iteration seeded from an arbitrary
// temperature field (length NumNodes) — typically a retained field from a
// neighboring evaluation rather than this model's own previous result.
// Seeds that cannot safely start an iteration (wrong length, or holding
// NaN/Inf entries) are ignored and the solve cold-starts from ambient, so
// a bad seed can cost time but never correctness.
func (m *Model) SolveSeeded(chipPower, seed []float64) (*Result, error) {
	return m.SolveSeededCtx(context.Background(), chipPower, seed)
}

// SolveSeededCtx is SolveSeeded with cooperative cancellation (see SolveCtx).
func (m *Model) SolveSeededCtx(ctx context.Context, chipPower, seed []float64) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("thermal: solve abandoned before starting: %w", err)
	}
	ws := m.getWorkspace()
	defer m.putWorkspace(ws)
	if err := m.chipRHS(ws.rhs, chipPower); err != nil {
		return nil, err
	}
	x := m.getX()
	seedKind := seedAmbient
	if validSeed(seed, m.nNodes) {
		copy(x, seed)
		seedKind = seedField
	} else {
		m.fillAmbient(x)
	}
	return m.runPCG(ctx, ws, x, seedKind, 0)
}

// Seed kinds recorded on thermal.cg spans: the iteration started at
// ambient, from a caller-supplied field, or from a Sequence's secant
// extrapolation.
const (
	seedAmbient = "ambient"
	seedField   = "field"
	seedSecant  = "secant"
)

// chipRHS assembles the right-hand side of a solve with power injected
// into the chip layer only (watts per package-grid cell, length Nx*Ny).
func (m *Model) chipRHS(rhs, chipPower []float64) error {
	if len(chipPower) != m.nCells {
		return fmt.Errorf("thermal: power map has %d cells, model grid has %d", len(chipPower), m.nCells)
	}
	for i := range rhs {
		rhs[i] = 0
	}
	chipBase := m.ChipLayerOffset()
	for c, p := range chipPower {
		if p < 0 {
			return fmt.Errorf("thermal: negative power %g at cell %d", p, c)
		}
		if math.IsNaN(p) || math.IsInf(p, 0) {
			// CG cannot detect a non-finite right-hand side; it would run
			// to MaxIterations on NaNs.
			return fmt.Errorf("thermal: non-finite power %g at cell %d", p, c)
		}
		rhs[chipBase+c] = p
	}
	m.addBoundaryRHS(rhs)
	return nil
}

// fillAmbient sets every node of x to the ambient temperature.
func (m *Model) fillAmbient(x []float64) {
	for i := range x {
		x[i] = m.cfg.AmbientC
	}
}

// validSeed reports whether a seed field can start a CG iteration: exactly
// one value per node and every value finite. A NaN or Inf anywhere would
// poison the Krylov recurrence and surface as a spurious non-convergence
// (or worse, a NaN field), so such seeds are rejected up front.
func validSeed(seed []float64, n int) bool {
	if len(seed) != n {
		return false
	}
	for _, v := range seed {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// SolveMulti solves with power injected into several package layers at
// once — the 3D-stacking case, where more than one CMOS layer dissipates.
// Keys are layer indices (bottom-up, as in the stack); values are
// per-cell watts (length Nx*Ny).
func (m *Model) SolveMulti(perLayer map[int][]float64) (*Result, error) {
	return m.SolveMultiCtx(context.Background(), perLayer)
}

// SolveMultiCtx is SolveMulti with cooperative cancellation; like
// SolveWarmCtx it runs the CG under a "thermal.cg" span, so multi-layer
// solves show up in request traces too.
func (m *Model) SolveMultiCtx(ctx context.Context, perLayer map[int][]float64) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("thermal: solve abandoned before starting: %w", err)
	}
	ws := m.getWorkspace()
	defer m.putWorkspace(ws)
	rhs := ws.rhs
	for i := range rhs {
		rhs[i] = 0
	}
	for l, pmap := range perLayer {
		if l < 0 || l >= m.nLayer {
			return nil, fmt.Errorf("thermal: power layer %d out of range [0,%d)", l, m.nLayer)
		}
		if len(pmap) != m.nCells {
			return nil, fmt.Errorf("thermal: layer %d power map has %d cells, model grid has %d", l, len(pmap), m.nCells)
		}
		for c, p := range pmap {
			if p < 0 {
				return nil, fmt.Errorf("thermal: negative power %g at layer %d cell %d", p, l, c)
			}
			rhs[l*m.nCells+c] += p
		}
	}
	m.addBoundaryRHS(rhs)
	x := m.getX()
	m.fillAmbient(x)
	return m.runPCG(ctx, ws, x, seedAmbient, 0)
}

// addBoundaryRHS adds the ambient boundary terms (sink convection and the
// optional board path) to an assembled right-hand side.
func (m *Model) addBoundaryRHS(rhs []float64) {
	for c := 0; c < m.nCells; c++ {
		rhs[m.sinkBase+c] += m.convG[c] * m.cfg.AmbientC
	}
	for c, g := range m.boardG {
		rhs[c] += g * m.cfg.AmbientC
	}
}

// runPCG runs the preconditioned CG under a span, assembling the Result.
// seedKind and rank describe where x started (rank is a Sequence's secant
// basis size, 0 otherwise). On error the solution buffer goes back to the
// pool.
func (m *Model) runPCG(ctx context.Context, ws *workspace, x []float64, seedKind string, rank int) (*Result, error) {
	ctx, sp := obs.Start(ctx, "thermal.cg")
	var pre cgPre = m.precond
	if m.mg != nil {
		pre = m.mg
	}
	sys := cgSystem{
		diag: m.diag, mat: m.csr, pre: pre,
		tol: m.cfg.Tolerance, maxIter: m.cfg.MaxIterations,
	}
	st, err := pcgSolve(ctx, &sys, ws, x, ws.rhs)
	sp.SetAttr("iterations", st.iters)
	if !math.IsNaN(st.res) { // NaN (abandoned solve) is not JSON-encodable
		sp.SetAttr("residual", st.res)
	}
	sp.SetAttr("grid_n", m.grid.Nx)
	sp.SetAttr("seed", seedKind)
	sp.SetAttr("basis_rank", rank)
	if !math.IsNaN(st.res0) && !math.IsInf(st.res0, 0) {
		sp.SetAttr("seed_residual", st.res0)
	}
	sp.SetAttr("precond", m.precondName)
	sp.End()
	if err != nil {
		m.scratch.x.put(x)
		return nil, err
	}
	return &Result{T: x, Iterations: st.iters, Residual: st.res, model: m}, nil
}

// cgSystem bundles the SPD system one PCG run solves: the (possibly
// shifted) diagonal, the shared CSR off-diagonals, a matching
// preconditioner (IC(0) or the multigrid V-cycle), and the iteration
// controls.
type cgSystem struct {
	diag    []float64
	mat     *csrMatrix
	pre     cgPre
	tol     float64
	maxIter int
}

// cgStats reports one PCG run: the iterations used, the final relative
// residual, and the relative residual of the starting iterate (how good
// the seed was).
type cgStats struct {
	iters     int
	res, res0 float64
}

// pcgSolve runs preconditioned conjugate gradients, overwriting x with the
// solution of A·x = b. ctx is checked every few iterations so long solves
// can be abandoned (e.g. when an HTTP client disconnects). Every reduction
// runs through the striped kernels, whose fixed summation order is
// documented in kernel.go.
func pcgSolve(ctx context.Context, sys *cgSystem, ws *workspace, x, b []float64) (cgStats, error) {
	r, z, p, ap, parts := ws.r, ws.z, ws.p, ws.ap, ws.parts

	spmvStriped(sys.diag, sys.mat, ap, x, nil, nil)
	residualStriped(r, b, ap, parts)
	bnorm := math.Sqrt(reduceParts(parts))
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return cgStats{}, nil
	}
	// Convergence is relative to ‖b‖ (residualStriped's parts accumulate
	// Σb², not Σr²), so a warm start's head start is banked rather than
	// re-normalized away — and a seed already inside tolerance must return
	// before paying for a single iteration, preconditioner application
	// included. That early exit is what makes same-operator warm starts
	// (leakage passes, repeated search points) nearly free.
	dotStriped(r, r, parts)
	res0 := math.Sqrt(reduceParts(parts)) / bnorm
	if res0 < sys.tol {
		return cgStats{res: res0, res0: res0}, nil
	}
	rz := sys.pre.precondApply(ws, z, r)
	copy(p, z)
	for it := 1; it <= sys.maxIter; it++ {
		if it&0x1f == 0 {
			select {
			case <-ctx.Done():
				return cgStats{it, math.NaN(), res0}, fmt.Errorf("thermal: solve abandoned after %d CG iterations: %w", it, ctx.Err())
			default:
			}
		}
		spmvStriped(sys.diag, sys.mat, ap, p, p, parts)
		pap := reduceParts(parts)
		if pap <= 0 {
			return cgStats{it, math.NaN(), res0}, fmt.Errorf("thermal: CG breakdown (pAp = %g); matrix not SPD", pap)
		}
		alpha := rz / pap
		updateStriped(alpha, x, p, r, ap, parts)
		rnorm := math.Sqrt(reduceParts(parts))
		if rnorm/bnorm < sys.tol {
			return cgStats{it, rnorm / bnorm, res0}, nil
		}
		rzNew := sys.pre.precondApply(ws, z, r)
		beta := rzNew / rz
		rz = rzNew
		combine(beta, p, z)
	}
	dotStriped(r, r, parts)
	res := math.Sqrt(reduceParts(parts)) / bnorm
	return cgStats{sys.maxIter, res, res0}, fmt.Errorf(
		"thermal: CG did not converge in %d iterations (residual %.3g)",
		sys.maxIter, res)
}

// icPreconditioner is a zero-fill incomplete Cholesky factorization
// A ≈ L·Lᵀ restricted to A's sparsity pattern. Thermal conductance matrices
// are symmetric M-matrices, for which IC(0) exists and is stable; a
// diagonal-shift fallback guards against rounding-induced breakdown.
//
// Both triangular solves are gather-only: the forward pass reads the lower
// factor row-wise, and the backward pass reads a precomputed transpose of
// it (upPtr/upCol/upVal), so neither loop scatters writes across rows and
// each fuses its division into the single sweep.
type icPreconditioner struct {
	n      int
	rowPtr []int32   // CSR row pointers for the strict lower triangle
	colIdx []int32   // column indices (sorted ascending per row)
	lval   []float64 // factor values for the strict lower triangle
	d      []float64 // diagonal of L
	dinv   []float64 // 1/d: the solves multiply, since an FP divide in a
	// loop-carried dependency chain costs ~10x a multiply

	upPtr []int32   // CSR of the strict upper triangle (Lᵀ's rows)
	upCol []int32   // for row i: the rows j > i with L[j][i] ≠ 0
	upVal []float64 // L[j][i], mirrored from lval after factorization
	upPos []int32   // lval index backing each upVal entry
}

// newICFromCSR builds IC(0) from the full symmetric CSR structure. The CSR
// rows are already column-sorted, so the lower triangle of row i is simply
// the row's prefix with col < i — no per-row sorting remains.
func newICFromCSR(n int, diag []float64, a *csrMatrix) *icPreconditioner {
	lower := 0
	for i := 0; i < n; i++ {
		for idx := a.rowPtr[i]; idx < a.rowPtr[i+1]; idx++ {
			if a.colIdx[idx] < int32(i) {
				lower++
			}
		}
	}
	rowPtr := make([]int32, n+1)
	colIdx := make([]int32, lower)
	aval := make([]float64, lower)
	pos := int32(0)
	for i := 0; i < n; i++ {
		rowPtr[i] = pos
		for idx := a.rowPtr[i]; idx < a.rowPtr[i+1]; idx++ {
			c := a.colIdx[idx]
			if c >= int32(i) {
				break // columns are sorted; the rest is the upper triangle
			}
			colIdx[pos] = c
			aval[pos] = a.vals[idx]
			pos++
		}
	}
	rowPtr[n] = pos

	ic := &icPreconditioner{
		n: n, rowPtr: rowPtr, colIdx: colIdx,
		lval: make([]float64, lower),
		d:    make([]float64, n),
		dinv: make([]float64, n),
	}
	ic.buildTranspose()
	ic.factor(diag, aval)
	return ic
}

// buildTranspose indexes the strict upper triangle (the lower factor's
// transpose) so backward substitution can gather instead of scatter.
func (ic *icPreconditioner) buildTranspose() {
	n := ic.n
	ic.upPtr = make([]int32, n+1)
	for _, c := range ic.colIdx {
		ic.upPtr[c+1]++
	}
	for i := 0; i < n; i++ {
		ic.upPtr[i+1] += ic.upPtr[i]
	}
	ic.upCol = make([]int32, len(ic.colIdx))
	ic.upPos = make([]int32, len(ic.colIdx))
	ic.upVal = make([]float64, len(ic.colIdx))
	off := make([]int32, n)
	copy(off, ic.upPtr[:n])
	for j := 0; j < n; j++ {
		for idx := ic.rowPtr[j]; idx < ic.rowPtr[j+1]; idx++ {
			i := ic.colIdx[idx]
			q := off[i]
			off[i]++
			ic.upCol[q] = int32(j)
			ic.upPos[q] = idx
		}
	}
}

func (ic *icPreconditioner) factor(diag, aval []float64) {
	n := ic.n
	for i := 0; i < n; i++ {
		ri0, ri1 := ic.rowPtr[i], ic.rowPtr[i+1]
		for idx := ri0; idx < ri1; idx++ {
			k := ic.colIdx[idx]
			s := aval[idx]
			// s -= Σ_m L[i][m]·L[k][m] over shared columns m < k.
			a, aEnd := ri0, idx
			b, bEnd := ic.rowPtr[k], ic.rowPtr[k+1]
			for a < aEnd && b < bEnd {
				ca, cb := ic.colIdx[a], ic.colIdx[b]
				switch {
				case ca == cb:
					s -= ic.lval[a] * ic.lval[b]
					a++
					b++
				case ca < cb:
					a++
				default:
					b++
				}
			}
			ic.lval[idx] = s / ic.d[k]
		}
		dv := diag[i]
		for idx := ri0; idx < ri1; idx++ {
			dv -= ic.lval[idx] * ic.lval[idx]
		}
		if dv <= 0 {
			// Breakdown guard: fall back to the (always positive) original
			// diagonal, locally degrading toward Jacobi.
			dv = diag[i]
		}
		ic.d[i] = math.Sqrt(dv)
		ic.dinv[i] = 1 / ic.d[i]
	}
	// Mirror the factor into the transpose for the backward gather.
	for q, pos := range ic.upPos {
		ic.upVal[q] = ic.lval[pos]
	}
}

// apply computes z = M⁻¹·r via forward (L·y = r) and backward (Lᵀ·z = y)
// substitution, returning Σ r[i]·z[i] — the r·z inner product CG needs
// right after preconditioning — accumulated inside the backward sweep so
// the pair costs one memory pass instead of two. Both sweeps are fused
// gather loops: one read pass over the factor, one sequential write per
// row, the diagonal reciprocal folded in. The sweeps (and the returned
// dot) run in row order, a fixed summation order like the striped sums of
// kernel.go.
func (ic *icPreconditioner) apply(z, r []float64) float64 {
	n := ic.n
	rowPtr, colIdx, lval, dinv := ic.rowPtr, ic.colIdx, ic.lval, ic.dinv
	for i := 0; i < n; i++ {
		s := r[i]
		end := rowPtr[i+1]
		for idx := rowPtr[i]; idx < end; idx++ {
			s -= lval[idx] * z[colIdx[idx]]
		}
		z[i] = s * dinv[i]
	}
	upPtr, upCol, upVal := ic.upPtr, ic.upCol, ic.upVal
	rz := 0.0
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		end := upPtr[i+1]
		for idx := upPtr[i]; idx < end; idx++ {
			s -= upVal[idx] * z[upCol[idx]]
		}
		zi := s * dinv[i]
		z[i] = zi
		rz += r[i] * zi
	}
	return rz
}
