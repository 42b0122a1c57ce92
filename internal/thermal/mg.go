package thermal

import (
	"math"
	"slices"
)

// Geometric multigrid preconditioner for the CG solve.
//
// The thermal network is a stack of structured Nx x Ny sheets (the package
// layers, the spreader, the sink), so a geometric hierarchy is available
// for free. The stack is strongly anisotropic — vertical conductances
// dwarf lateral ones — so the hierarchy treats the two directions
// differently:
//
//   - The finest level keeps the full stack and smooths with a vertical
//     line smoother: each (x,y) column's package nodes are solved exactly
//     through a per-column tridiagonal LDL' factorization (stored z-major
//     so the sweep walks memory linearly), embedded in a block
//     Gauss–Seidel ordering with the spreader and sink as trailing point
//     rows. Point-wise smoothing cannot damp errors that are smooth along
//     the strong vertical direction; the line solve removes them in one
//     sweep.
//
//   - The first transfer collapses the vertical direction and halves the
//     lateral grid in a single fused operator (composeTransfers): the
//     strongly coupled bottom package block — found by zSplits, which
//     looks for weak vertical interfaces such as the TIM gap — aggregates
//     piecewise-constant onto one coarse sheet, the weakly attached upper
//     layers interpolate between that block and the spreader with
//     harmonic (two-sided Thomas-solve) weights, and the spreader and
//     sink pass through; the whole thing is then composed with a
//     cell-centered bilinear 2x lateral coarsening. Subsequent levels
//     fold the spreader into the sink (newFoldTransfer) and halve
//     laterally (newTransferOp) until an edge would drop below mgMinEdge.
//
// Coarse operators are Galerkin products Ac = P'·A·P assembled in the same
// CSR layout the fine solve sweeps, then truncated with diagonal
// compensation (see mgDropTol) so the near-null smooth modes survive
// dropping. Coarse levels smooth with plain Gauss–Seidel (a forward sweep
// before the coarse correction, a backward sweep after), and the coarsest
// system (a few hundred nodes) is solved directly by a dense Cholesky
// factored once at model build. One V(1,1) cycle of that hierarchy is the
// preconditioner application; it converges the production 64x64 stack in
// 7 CG iterations vs ~80 for IC(0).
//
// Why this beats IC(0) here: the convection boundary is a weak anchor, so
// the conductance matrix has near-null smooth modes that IC(0)-PCG spends
// many iterations resolving on a 64x64 stack. The coarse levels solve
// exactly those modes.
//
// Determinism: every stage of the V-cycle (smoother sweeps, residual,
// restriction, prolongation, the coarsest direct solve) is a serial loop in
// fixed row order, exactly like the IC(0) triangular solves it replaces,
// and the one reduction (the r·z product) goes through the striped
// partial sums of kernel.go.
//
// Symmetry: the post-smoother (backward sweep) is the adjoint of the
// pre-smoother (forward sweep), restriction is the transpose of
// prolongation, and the coarse operators are Galerkin — so the V(1,1)
// cycle is a symmetric positive-definite operator, a valid CG
// preconditioner.

// Preconditioner names, as Model.PreconditionerName reports them. NewModel
// picks one from the grid size (see mgMinGridEdge).
const (
	// PrecondIC0 is the zero-fill incomplete Cholesky preconditioner.
	PrecondIC0 = "ic0"
	// PrecondMG is the geometric multigrid V-cycle preconditioner. Models
	// whose grid cannot be coarsened (an edge below 2*mgMinEdge cells)
	// keep IC(0).
	PrecondMG = "mg"
)

// mgMinEdge is the smallest sheet edge the coarsener will produce:
// coarsening stops when halving would drop Nx or Ny below mgMinEdge.
const mgMinEdge = 4

// mgDropTol and mgDropTolDeep are the Galerkin truncation thresholds:
// coarse entries with |a_ij| below the threshold times the smaller of the
// two incident diagonals are dropped with diagonal compensation (see
// truncateCSR). Bilinear prolongation smears shifted cross-sheet nesting
// links into long tails of near-zero couplings — without truncation the
// deeper operators carry ~26 entries per row (4-5x the fine operator) and
// their sweeps dominate the cycle. Deep levels (the lateral chain) tolerate
// a much coarser threshold: the smeared couplings there are weak by
// construction, and dropping them with compensation perturbs only modes the
// level's own smoother resolves.
const (
	mgDropTol     = 1e-3
	mgDropTolDeep = 1e-2
)

// cgPre is what the CG iteration needs from a preconditioner: overwrite z
// with M~·r and return the fused inner product sum(r[i]*z[i]).
type cgPre interface {
	precondApply(ws *workspace, z, r []float64) float64
}

// precondApply adapts the IC(0) preconditioner to the cgPre interface; the
// workspace is unused.
func (ic *icPreconditioner) precondApply(_ *workspace, z, r []float64) float64 {
	return ic.apply(z, r)
}

// transferOp is one inter-grid transfer: the prolongation P stored as CSR
// over fine rows (n is the fine row count; ascending coarse columns per
// row). P is the only copy: prolongation gathers through its rows and
// restriction (P') scatters through them, so no transpose is kept.
type transferOp struct {
	*csrMatrix
	nCoarse int
}

// axisWeights returns the 1D cell-centered bilinear weights for fine index
// f over a coarse axis of cn cells, in ascending coarse-index order. An
// interior fine cell sees its enclosing coarse cell with weight 3/4 and
// the nearest adjacent one with 1/4; at the sheet boundary the outside
// neighbor clamps onto the enclosing cell, merging to weight 1 — row sums
// stay exactly 1, so prolongation reproduces constants.
func axisWeights(f, cn int) (idx [2]int, w [2]float64, n int) {
	c0 := f / 2
	c1 := c0 - 1
	if f&1 == 1 {
		c1 = c0 + 1
	}
	if c1 < 0 || c1 >= cn {
		return [2]int{c0}, [2]float64{1}, 1
	}
	if c1 < c0 {
		return [2]int{c1, c0}, [2]float64{0.25, 0.75}, 2
	}
	return [2]int{c0, c1}, [2]float64{0.75, 0.25}, 2
}

// mgZSplitTol is the aggregation-strength threshold for the vertical
// coarsening: a package interface whose coupling, relative to the larger
// of the two incident diagonals' shares, stays below this value separates
// layer blocks that hold independent laterally-smooth error — aggregating
// across it produces a coarse space that cannot represent those modes (the
// error propagator keeps an O(0.8) mode and CG pays for it in iterations).
// Such interfaces split the aggregation into per-block coarse sheets.
const mgZSplitTol = 0.6

// zSplits inspects the assembled matrix and returns the package interfaces
// (indices l meaning "between layer l and l+1") too weak to aggregate
// across. Strength of an interface at one column is the vertical link over
// the incident diagonal, taken from whichever side follows the other more
// strongly (one-sided following suffices for aggregation: the weak side's
// error is slaved to the strong side's). The median over columns makes the
// decision robust to floorplan material variation.
func zSplits(nLayer, nc int, diag []float64, mat *csrMatrix) []int {
	var splits []int
	ratios := make([]float64, nc)
	for l := 0; l < nLayer-1; l++ {
		for c := 0; c < nc; c++ {
			i := l*nc + c
			j := i + nc
			v := -csrAt(mat, i, j)
			s := v / diag[i]
			if r := v / diag[j]; r > s {
				s = r
			}
			ratios[c] = s
		}
		slices.Sort(ratios)
		if ratios[nc/2] < mgZSplitTol {
			splits = append(splits, l)
		}
	}
	return splits
}

// newZAggTransfer builds the first transfer of the hierarchy, collapsing
// the package vertically in one step. Layer blocks are delimited by the
// weak interfaces zSplits found: the bottom block — connected to the
// spreader only through weak links, so its laterally-smooth error is
// independent — aggregates onto its own coarse sheet with
// piecewise-constant weights (within a block the vertical conductances
// dominate, so after the line relaxation the error is constant down the
// block and a constant-in-z space captures it exactly). All other blocks
// are slaved to the spreader through strong coupling and fold directly
// into its center block with nested bilinear weights, the same geometry
// newFoldTransfer uses. The single transfer keeps every Galerkin link as
// local as the fine operator: in-aggregate vertical links cancel outright
// and fold links land on aligned coarse cells.
func newZAggTransfer(nLayer, nx, ny int, splits []int, mat *csrMatrix) *transferOp {
	nc := nx * ny
	nPkg := nLayer * nc
	group := make([]int, nLayer)
	g := 0
	for l, s := 0, 0; l < nLayer; l++ {
		group[l] = g
		if s < len(splits) && splits[s] == l {
			g++
			s++
		}
	}
	// Layers in the bottom block (group 0) aggregate onto their own coarse
	// sheet when the aggregation is split; all layers above the first split
	// are slaved between that block and the spreader.
	nKeep, s0 := 0, 0
	if len(splits) > 0 {
		nKeep, s0 = 1, splits[0]+1
	}
	// Harmonic vertical weights for the slaved layers: each slaved column
	// segment solves its own vertical-conductance tridiagonal with unit
	// boundary values at the kept block below (weight alpha) and the
	// spreader above (weight 1-alpha). The error the line smoother leaves
	// on a slaved layer is not the spreader's value replicated — the power
	// iteration over the error propagator shows it interpolating between
	// the bottom block's amplitude and the spreader's — and the harmonic
	// profile is exactly the shape a column in equilibrium takes between
	// those two anchors, whatever the interface strengths. Lateral terms
	// are excluded from the tridiagonal so alpha + beta = 1 per layer and
	// the transfer still reproduces constants exactly. With no split there
	// is no lower anchor and the solve degenerates to alpha = 0 — the
	// plain slaved fold.
	nSlaved := nLayer - s0
	alpha := make([]float64, nSlaved*nc)
	for c := 0; c < nc; c++ {
		var d, low, ya, ys [16]float64
		for k := 0; k < nSlaved; k++ {
			l := s0 + k
			i := l*nc + c
			if l > 0 {
				low[k] = -csrAt(mat, i, i-nc)
			}
			if l < nLayer-1 {
				d[k] = low[k] - csrAt(mat, i, i+nc)
			} else {
				up := 0.0
				for idx := mat.rowPtr[i]; idx < mat.rowPtr[i+1]; idx++ {
					if int(mat.colIdx[idx]) >= nPkg {
						up -= mat.vals[idx]
					}
				}
				d[k] = low[k] + up
				ys[k] = up
			}
		}
		if nKeep == 1 {
			ya[0] = low[0]
		}
		// Thomas elimination on the symmetric tridiagonal, two right-hand
		// sides at once.
		for k := 1; k < nSlaved; k++ {
			m := low[k] / d[k-1]
			d[k] -= m * low[k]
			ya[k] += m * ya[k-1]
			ys[k] += m * ys[k-1]
		}
		ya[nSlaved-1] /= d[nSlaved-1]
		for k := nSlaved - 2; k >= 0; k-- {
			ya[k] = (ya[k] + low[k+1]*ya[k+1]) / d[k]
		}
		for k := 0; k < nSlaved; k++ {
			alpha[k*nc+c] = ya[k]
		}
	}
	nFine := (nLayer + 2) * nc
	sprBase := int32(nKeep * nc)
	p := buildCSR(nFine, func(emit func(int, int32, float64)) {
		for i := 0; i < nFine; i++ {
			sheet := i / nc
			c := i % nc
			switch {
			case sheet < nLayer && nKeep == 1 && group[sheet] == 0:
				emit(i, int32(c), 1)
			case sheet < nLayer:
				a := alpha[(sheet-s0)*nc+c]
				if a != 0 {
					emit(i, int32(c), a)
				}
				beta := 1 - a
				fy, fx := c/nx, c%nx
				cys, wys, nwy := axisWeights(fy+ny/2, ny)
				cxs, wxs, nwx := axisWeights(fx+nx/2, nx)
				for yi := 0; yi < nwy; yi++ {
					for xi := 0; xi < nwx; xi++ {
						emit(i, sprBase+int32(cys[yi]*nx+cxs[xi]), beta*wys[yi]*wxs[xi])
					}
				}
			default: // spreader, sink: pass through
				emit(i, sprBase+int32(sheet-nLayer)*int32(nc)+int32(c), 1)
			}
		}
	})
	return &transferOp{csrMatrix: p, nCoarse: (nKeep + 2) * nc}
}

// newFoldTransfer folds fine sheets nSkip..nSkip+nFold-1 into fine sheet
// nSkip+nFold (the first nSkip sheets and the sheets above the target pass
// through unchanged), exploiting the
// stack's nesting geometry: the spreader (and sink) sit at twice the lateral
// pitch of the sheet below with the finer sheet centered on them, so the
// finer sheet's cells nest exactly inside the center block of the coarser
// one — cell (ix,iy) lies inside cell ((ix+nx/2)/2, (iy+ny/2)/2), the same
// map the model's vertical nesting links use. The folded sheets' rows interpolate
// bilinearly over that aligned sub-grid (a +nx/2 index pre-shift feeds the
// standard cell-centered weights and never clamps, since the target indices
// stay interior); the remaining sheets pass through unchanged. Because the
// fold follows the physical nesting, the vertical links between sheet 0 and
// sheet 1 connect nodes whose transfer entries land on the same coarse
// cells — the Galerkin product stays as local as the fine operator instead
// of smearing the shifted links into wide stencils.
func newFoldTransfer(nSkip, nFold, nSheets, nx, ny int) *transferOp {
	nc := nx * ny
	nFine := nSheets * nc
	tgt := int32(nSkip * nc) // the fold target sheet's coarse base
	p := buildCSR(nFine, func(emit func(int, int32, float64)) {
		for i := 0; i < nSkip*nc; i++ {
			emit(i, int32(i), 1)
		}
		for s := nSkip; s < nSkip+nFold; s++ {
			for fy := 0; fy < ny; fy++ {
				cys, wys, nwy := axisWeights(fy+ny/2, ny)
				for fx := 0; fx < nx; fx++ {
					cxs, wxs, nwx := axisWeights(fx+nx/2, nx)
					i := s*nc + fy*nx + fx
					for yi := 0; yi < nwy; yi++ {
						for xi := 0; xi < nwx; xi++ {
							emit(i, tgt+int32(cys[yi]*nx+cxs[xi]), wys[yi]*wxs[xi])
						}
					}
				}
			}
		}
		for i := (nSkip + nFold) * nc; i < nFine; i++ {
			emit(i, int32(i-nFold*nc), 1)
		}
	})
	return &transferOp{csrMatrix: p, nCoarse: (nSheets - nFold) * nc}
}

// newTransferOp builds the prolongation from an nSheets-sheet stack of
// (fnx/2 x fny/2) coarse sheets to (fnx x fny) fine sheets. Sheets are
// independent blocks: inter-sheet (vertical) coupling is left entirely to
// the Galerkin product, which folds the fine vertical links into coarse
// ones algebraically.
func newTransferOp(nSheets, fnx, fny int) *transferOp {
	cnx, cny := fnx/2, fny/2
	fnc, cnc := fnx*fny, cnx*cny
	p := buildCSR(nSheets*fnc, func(emit func(int, int32, float64)) {
		for s := 0; s < nSheets; s++ {
			cBase := int32(s * cnc)
			for fy := 0; fy < fny; fy++ {
				cys, wys, ny := axisWeights(fy, cny)
				for fx := 0; fx < fnx; fx++ {
					cxs, wxs, nx := axisWeights(fx, cnx)
					i := s*fnc + fy*fnx + fx
					for yi := 0; yi < ny; yi++ {
						for xi := 0; xi < nx; xi++ {
							emit(i, cBase+int32(cys[yi]*cnx+cxs[xi]), wys[yi]*wxs[xi])
						}
					}
				}
			}
		}
	})
	return &transferOp{csrMatrix: p, nCoarse: nSheets * cnc}
}

// composeTransfers returns the product transfer a then b: fine rows of a
// mapped through b's coarsening, so two geometric coarsenings collapse into
// a single level. The hierarchy uses it to fuse the vertical aggregation
// with the first lateral halving — the intermediate grid would cost a full
// smooth-residual-transfer pass per cycle while contributing nothing the
// combined coarse space does not already span (the line smoother leaves
// laterally-smooth error, which survives a 2x lateral coarsening).
func composeTransfers(a, b *transferOp) *transferOp {
	mark := make([]int32, b.nCoarse)
	acc := make([]float64, b.nCoarse)
	touched := make([]int32, 0, 16)
	p := buildCSR(a.n, func(emit func(int, int32, float64)) {
		for i := range mark { // buildCSR runs this twice
			mark[i] = -1
		}
		for i := 0; i < a.n; i++ {
			touched = touched[:0]
			for e := a.rowPtr[i]; e < a.rowPtr[i+1]; e++ {
				k, wa := a.colIdx[e], a.vals[e]
				for f := b.rowPtr[k]; f < b.rowPtr[k+1]; f++ {
					j := b.colIdx[f]
					if mark[j] != int32(i) {
						mark[j] = int32(i)
						acc[j] = 0
						touched = append(touched, j)
					}
					acc[j] += wa * b.vals[f]
				}
			}
			slices.Sort(touched)
			for _, j := range touched {
				emit(i, j, acc[j])
			}
		}
	})
	return &transferOp{csrMatrix: p, nCoarse: b.nCoarse}
}

// galerkinCoarse assembles Ac = P'·A·P row by row: for coarse row jc it
// walks the fine rows restricting into jc (the rows of P', a transpose
// built here and dropped with the other setup temporaries), scatters each
// fine row of A through P into a dense accumulator, and compacts the
// touched columns into the same split diag + off-diagonal CSR layout the
// fine operator uses, so the coarse SpMV reuses the fine kernels unchanged.
// The product is a setup temporary — truncateCSR copies what survives into
// exactly sized arrays — so its entries are appended to the caller's
// buffers cols and vals from their start, letting one pair of buffers
// serve every level of a build.
func galerkinCoarse(fDiag []float64, fMat *csrMatrix, t *transferOp, cols []int32, vals []float64) ([]float64, *csrMatrix) {
	nc := t.nCoarse
	pt := t.transpose(nc)
	cDiag := make([]float64, nc)
	rowPtr := make([]int32, nc+1)
	colIdx, vals := cols[:0], vals[:0]
	acc := make([]float64, nc)
	touched := make([]bool, nc)
	row := make([]int32, 0, 64)

	scatter := func(k int32, scale float64) {
		end := t.rowPtr[k+1]
		for e := t.rowPtr[k]; e < end; e++ {
			lc := t.colIdx[e]
			if !touched[lc] {
				touched[lc] = true
				row = append(row, lc)
			}
			acc[lc] += scale * t.vals[e]
		}
	}

	for jc := 0; jc < nc; jc++ {
		row = row[:0]
		for q := pt.rowPtr[jc]; q < pt.rowPtr[jc+1]; q++ {
			i := pt.colIdx[q]
			wi := pt.vals[q]
			scatter(i, wi*fDiag[i])
			end := fMat.rowPtr[i+1]
			for idx := fMat.rowPtr[i]; idx < end; idx++ {
				scatter(fMat.colIdx[idx], wi*fMat.vals[idx])
			}
		}
		slices.Sort(row)
		for _, lc := range row {
			if int(lc) == jc {
				cDiag[jc] = acc[lc]
			} else {
				colIdx = append(colIdx, lc)
				vals = append(vals, acc[lc])
			}
			acc[lc] = 0
			touched[lc] = false
		}
		rowPtr[jc+1] = int32(len(colIdx))
	}
	return cDiag, &csrMatrix{n: nc, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// symmetrizeCSR averages every (i,j)/(j,i) pair in place. The Galerkin
// product is symmetric in exact arithmetic but its floating-point
// accumulation order is not, and CG assumes an exactly symmetric operator;
// the sparsity pattern is symmetric by construction, so each mirror entry
// is found by binary search within its (column-sorted) row.
func symmetrizeCSR(mat *csrMatrix) {
	for i := 0; i < mat.n; i++ {
		end := mat.rowPtr[i+1]
		for idx := mat.rowPtr[i]; idx < end; idx++ {
			j := mat.colIdx[idx]
			if int(j) <= i {
				continue
			}
			lo, hi := mat.rowPtr[j], mat.rowPtr[j+1]
			for lo < hi {
				mid := (lo + hi) / 2
				if mat.colIdx[mid] < int32(i) {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < mat.rowPtr[j+1] && mat.colIdx[lo] == int32(i) {
				v := 0.5 * (mat.vals[idx] + mat.vals[lo])
				mat.vals[idx] = v
				mat.vals[lo] = v
			}
		}
	}
}

// truncateCSR drops every symmetric off-diagonal pair whose magnitude is
// below mgDropTol times the smaller incident diagonal, compensating both
// diagonals by the dropped value (d_i += v, d_j += v). Dropping a pair
// with compensation perturbs the operator by v·(e_i−e_j)(e_i−e_j)', which
// for the positive entries a Galerkin product picks up adds a PSD term
// (always safe) and for negative entries removes a conductance link whose
// magnitude the threshold bounds to a small fraction of the diagonal — the
// operator stays comfortably positive definite, and the coarsest-level
// Cholesky verifies that outright. Thresholds are taken against a snapshot
// of the pre-compensation diagonal so the drop decision is symmetric.
// diag is adjusted in place; the returned matrix replaces mat and holds
// exactly the kept entries.
func truncateCSR(diag []float64, mat *csrMatrix, tol float64) *csrMatrix {
	ref := slices.Clone(diag)
	drop := func(i, j int, v float64) bool {
		d := ref[i]
		if ref[j] < d {
			d = ref[j]
		}
		return math.Abs(v) <= tol*d
	}
	// rows visits every entry with its drop decision, in row order.
	rows := func(visit func(i, j int, v float64, dropped bool)) {
		for i := 0; i < mat.n; i++ {
			end := mat.rowPtr[i+1]
			for idx := mat.rowPtr[i]; idx < end; idx++ {
				j := int(mat.colIdx[idx])
				v := mat.vals[idx]
				visit(i, j, v, drop(i, j, v))
			}
		}
	}
	kept := buildCSR(mat.n, func(emit func(int, int32, float64)) {
		rows(func(i, j int, v float64, dropped bool) {
			if !dropped {
				emit(i, int32(j), v)
			}
		})
	})
	rows(func(i, j int, v float64, dropped bool) {
		if dropped && j > i { // compensate once per pair
			diag[i] += v
			diag[j] += v
		}
	})
	return kept
}

// mgLevel is one grid of the hierarchy (excluding the coarsest, which is
// held by the direct solver instead).
type mgLevel struct {
	n    int
	diag []float64
	dinv []float64
	mat  *csrMatrix
	down *transferOp   // transfer to the next-coarser level
	line *lineSmoother // level 0 of a multi-layer stack; nil = point GS
}

// finishLevel precomputes the reciprocal diagonal the Gauss–Seidel sweeps
// multiply by (an FP divide in a loop-carried chain costs ~10x a multiply,
// same reasoning as the IC(0) solves).
func finishLevel(lv *mgLevel) {
	lv.dinv = make([]float64, lv.n)
	for i := 0; i < lv.n; i++ {
		lv.dinv[i] = 1 / lv.diag[i]
	}
}

// lineSmoother is the level-0 smoother for the full stack: block
// Gauss–Seidel whose blocks are the vertical package columns (solved
// exactly as tridiagonal systems via a precomputed LDL' factorization),
// followed by the spreader and sink rows as point blocks. Point smoothing
// stalls on this stack because the package's vertical interfaces span three
// orders of magnitude in strength — some layers follow the die, one
// follows the spreader — so no single sweep direction relaxes every
// column mode, and the column-constant coarse space of the z-aggregation
// misses whatever survives. An exact column solve eliminates all
// vertically-varying error in one sweep no matter how the interface
// strengths fall, leaving exactly the laterally-smooth, column-constant
// error the z-aggregated coarse grid is built to correct.
type lineSmoother struct {
	nLayer, nc int
	nPkg       int // nLayer*nc: first spreader row
	// The column sweeps run in a z-major scratch layout — node (l, c) at
	// index c*nLayer+l — because in the model's sheet-major layout the six
	// package entries of one column sit exactly 8*nx*ny bytes apart: a
	// large power-of-2 stride that maps every layer of a column (plus the
	// matching right-hand-side reads) onto a single L1 set and thrashes
	// it. In z-major order a column is contiguous, its lateral neighbors
	// are a few cache lines away, and the factors and matrix entries
	// below stream sequentially. mz holds the unit-bidiagonal elimination
	// multipliers (l >= 1) and dinvz the inverse LDL' pivots, both
	// z-major.
	mz, dinvz []float64
	// The level's off-diagonal operator is split by block order into
	// couplings to earlier blocks (package columns to the left, or rows
	// below for the point blocks) and to later ones. In-block vertical
	// links are in neither — the LDL' solve owns them. The split is built
	// once so the sweeps and the post-smoothing residual stream exactly the
	// entries they need, with no per-entry block test and no gathers of
	// known-zero values, and every entry is stored once:
	//
	//   - lbz and uz hold the package rows' earlier- and later-block
	//     couplings in z-major rows (row c*nLayer+l). Their columns index
	//     the extended z-major iterate: package node (l, c) at
	//     c*nLayer+l, spreader and sink nodes at their own indices. uz
	//     keeps each row's entries in ascending sheet-major column order —
	//     the later package columns, then the spreader — and only the
	//     backward sweep and the residual read it: on the forward sweep
	//     from zero the later blocks are still zero;
	//   - lb/ub hold the spreader and sink rows (row i-nPkg is node i),
	//     split into the strict lower and upper triangles.
	lbz, uz *csrMatrix
	lb, ub  *csrMatrix
}

// csrAt returns A[i][j] from the off-diagonal CSR (0 when absent), by
// binary search within row i's sorted columns.
func csrAt(mat *csrMatrix, i, j int) float64 {
	lo, hi := mat.rowPtr[i], mat.rowPtr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if mat.colIdx[mid] < int32(j) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < mat.rowPtr[i+1] && mat.colIdx[lo] == int32(j) {
		return mat.vals[lo]
	}
	return 0
}

func newLineSmoother(nLayer, nc int, diag []float64, mat *csrMatrix) *lineSmoother {
	ls := &lineSmoother{nLayer: nLayer, nc: nc, nPkg: nLayer * nc}
	ls.mz = make([]float64, ls.nPkg)
	ls.dinvz = make([]float64, ls.nPkg)
	for c := 0; c < nc; c++ {
		zi := c * nLayer
		d := diag[c]
		ls.dinvz[zi] = 1 / d
		for l := 1; l < nLayer; l++ {
			v := csrAt(mat, l*nc+c, (l-1)*nc+c) // vertical in-column link
			mult := v / d
			ls.mz[zi+l] = mult
			d = diag[l*nc+c] - mult*v
			ls.dinvz[zi+l] = 1 / d
		}
	}
	// Split the package rows into the z-major sweep streams and the point
	// rows into their triangles. A package node's block is its column
	// index; spreader and sink rows follow as point blocks in row order.
	// A package row's in-column vertical links (j == i±nc inside the
	// package — lateral neighbors live on the same sheet and the spreader
	// link uses the nesting map, so only a top-layer cell whose nested
	// spreader index lands on its own column can collide, and that
	// j >= nPkg entry belongs to the later blocks) go to no stream: the
	// column's LDL' solve owns them.
	nPkg := ls.nPkg
	pkgRows := func(keep func(c, j int) bool) func(func(int, int32, float64)) {
		return func(emit func(int, int32, float64)) {
			for c := 0; c < nc; c++ {
				for l := 0; l < nLayer; l++ {
					i := l*nc + c
					for idx := mat.rowPtr[i]; idx < mat.rowPtr[i+1]; idx++ {
						j := int(mat.colIdx[idx])
						if !keep(c, j) {
							continue
						}
						if j < nPkg {
							j = (j%nc)*nLayer + j/nc
						}
						emit(c*nLayer+l, int32(j), mat.vals[idx])
					}
				}
			}
		}
	}
	ls.lbz = buildCSR(nPkg, pkgRows(func(c, j int) bool { return j < nPkg && j%nc < c }))
	ls.uz = buildCSR(nPkg, pkgRows(func(c, j int) bool { return j >= nPkg || j%nc > c }))
	pointRows := func(lower bool) func(func(int, int32, float64)) {
		return func(emit func(int, int32, float64)) {
			for i := nPkg; i < mat.n; i++ {
				for idx := mat.rowPtr[i]; idx < mat.rowPtr[i+1]; idx++ {
					if j := mat.colIdx[idx]; (int(j) < i) == lower {
						emit(i-nPkg, j, mat.vals[idx])
					}
				}
			}
		}
	}
	ls.lb = buildCSR(mat.n-nPkg, pointRows(true))
	ls.ub = buildCSR(mat.n-nPkg, pointRows(false))
	return ls
}

// packZ transposes the package part of a sheet-major vector into z-major
// scratch; unpackZ is the inverse. Each is one strided pass over the
// package — two orders of magnitude cheaper than letting every gather of
// the column sweeps pay the stride instead. The spreader and sink part
// keeps its sheet-major layout: packZ leaves it to the caller.
func (ls *lineSmoother) packZ(dst, src []float64) {
	nLayer, nc := ls.nLayer, ls.nc
	for l := 0; l < nLayer; l++ {
		sheet := src[l*nc : (l+1)*nc]
		for c, v := range sheet {
			dst[c*nLayer+l] = v
		}
	}
}

func (ls *lineSmoother) unpackZ(dst, src []float64) {
	nLayer, nc := ls.nLayer, ls.nc
	for l := 0; l < nLayer; l++ {
		sheet := dst[l*nc : (l+1)*nc]
		for c := range sheet {
			sheet[c] = src[c*nLayer+l]
		}
	}
}

// gatherRow accumulates −Σ a_ij·x_j over row i of one split matrix.
func gatherRow(mat *csrMatrix, i int, x []float64) float64 {
	s := 0.0
	end := mat.rowPtr[i+1]
	for idx := mat.rowPtr[i]; idx < end; idx++ {
		s -= mat.vals[idx] * x[mat.colIdx[idx]]
	}
	return s
}

// sweepColumn solves column c's tridiagonal block exactly against the
// z-major right-hand side and current extended z-major iterate: gather,
// then the precomputed LDL' substitutions. On the forward sweep from zero
// only the earlier-column couplings (lbz) carry non-zeros; the backward
// sweep adds the later blocks (uz).
func (ls *lineSmoother) sweepColumn(c int, withUpper bool, xz, bz []float64) {
	nLayer := ls.nLayer
	zi := c * nLayer
	var y [16]float64
	lbz, uz := ls.lbz, ls.uz
	for l := 0; l < nLayer; l++ {
		s := bz[zi+l]
		for e := lbz.rowPtr[zi+l]; e < lbz.rowPtr[zi+l+1]; e++ {
			s -= lbz.vals[e] * xz[lbz.colIdx[e]]
		}
		if withUpper {
			for e := uz.rowPtr[zi+l]; e < uz.rowPtr[zi+l+1]; e++ {
				s -= uz.vals[e] * xz[uz.colIdx[e]]
			}
		}
		y[l] = s
	}
	for l := 1; l < nLayer; l++ {
		y[l] -= ls.mz[zi+l] * y[l-1]
	}
	for l := 0; l < nLayer; l++ {
		y[l] *= ls.dinvz[zi+l]
	}
	xz[zi+nLayer-1] = y[nLayer-1]
	for l := nLayer - 2; l >= 0; l-- {
		y[l] -= ls.mz[zi+l+1] * y[l+1]
		xz[zi+l] = y[l]
	}
}

// forwardZero runs one forward block Gauss–Seidel sweep from a zero
// iterate: package columns in ascending column order (in the z-major
// scratch — no explicit zeroing needed, the gathers only touch columns the
// sweep already wrote), then spreader and sink rows pointwise in ascending
// row order. bz keeps the transposed right-hand side for the matching
// backward sweep of the same cycle, and xz ends as the extended z-major
// copy of x the residual reads.
func (ls *lineSmoother) forwardZero(pointDinv, bz, xz, x, b []float64) {
	ls.packZ(bz, b)
	for c := 0; c < ls.nc; c++ {
		ls.sweepColumn(c, false, xz, bz)
	}
	ls.unpackZ(x, xz)
	n := len(x)
	for i := ls.nPkg; i < n; i++ {
		x[i] = (b[i] + gatherRow(ls.lb, i-ls.nPkg, x)) * pointDinv[i]
	}
	copy(xz[ls.nPkg:], x[ls.nPkg:])
}

// backward runs the adjoint sweep — reversed block order, same exact block
// solves — making the level-0 smoothing pair symmetric. bz must still hold
// forwardZero's transposed right-hand side.
func (ls *lineSmoother) backward(pointDinv, bz, xz, x, b []float64) {
	n := len(x)
	for i := n - 1; i >= ls.nPkg; i-- {
		x[i] = (b[i] + gatherRow(ls.lb, i-ls.nPkg, x) + gatherRow(ls.ub, i-ls.nPkg, x)) * pointDinv[i]
	}
	ls.packZ(xz, x)
	copy(xz[ls.nPkg:], x[ls.nPkg:])
	for c := ls.nc - 1; c >= 0; c-- {
		ls.sweepColumn(c, true, xz, bz)
	}
	ls.unpackZ(x, xz)
}

// blockUpperResidual computes the residual after forwardZero. Each block
// is solved exactly against the earlier blocks' final values, so the
// residual reduces to the later-block couplings alone, a plain branch-free
// gather over the prebuilt split: the package rows' uz rows over
// forwardZero's extended z-major iterate xz (an exact copy of x), in
// ascending sheet-major column order, then the point rows' ub rows over x.
// The package rows are written sheet by sheet, so r is stored
// sequentially rather than at the nx*ny power-of-two stride a column walk
// would write.
func blockUpperResidual(ls *lineSmoother, r, xz, x []float64) {
	nLayer, nc := ls.nLayer, ls.nc
	uz := ls.uz
	for l := 0; l < nLayer; l++ {
		sheet := r[l*nc : (l+1)*nc]
		for c := range sheet {
			zi := c*nLayer + l
			s := 0.0
			for e := uz.rowPtr[zi]; e < uz.rowPtr[zi+1]; e++ {
				s -= uz.vals[e] * xz[uz.colIdx[e]]
			}
			sheet[c] = s
		}
	}
	for k := range ls.ub.n {
		r[ls.nPkg+k] = gatherRow(ls.ub, k, x)
	}
}

// gsForwardZero runs one forward Gauss–Seidel sweep from a zero initial
// guess: ascending rows, x[i] = (b[i] − Σ_{j<i} a_ij·x[j]) / a_ii. Entries
// with j > i multiply a still-zero x[j], and the CSR columns are sorted,
// so the sweep stops at each row's lower-triangle prefix.
func gsForwardZero(dinv []float64, mat *csrMatrix, x, b []float64) {
	n := mat.n
	rowPtr, colIdx, vals := mat.rowPtr, mat.colIdx, mat.vals
	for i := 0; i < n; i++ {
		s := b[i]
		end := rowPtr[i+1]
		for idx := rowPtr[i]; idx < end; idx++ {
			j := colIdx[idx]
			if int(j) >= i {
				break
			}
			s -= vals[idx] * x[j]
		}
		x[i] = s * dinv[i]
	}
}

// gsBackward runs one backward Gauss–Seidel sweep on the current iterate:
// descending rows, x[i] = (b[i] − Σ_{j≠i} a_ij·x[j]) / a_ii. As the
// adjoint of gsForwardZero it makes the V-cycle symmetric.
func gsBackward(dinv []float64, mat *csrMatrix, x, b []float64) {
	n := mat.n
	rowPtr, colIdx, vals := mat.rowPtr, mat.colIdx, mat.vals
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		end := rowPtr[i+1]
		for idx := rowPtr[i]; idx < end; idx++ {
			s -= vals[idx] * x[colIdx[idx]]
		}
		x[i] = s * dinv[i]
	}
}

// denseChol is the direct solver for the coarsest level: a dense lower
// Cholesky factor, built once at model build (the coarsest system is
// nSheets*mgMinEdge^2 nodes — a few hundred at most).
type denseChol struct {
	n int
	l []float64 // row-major; lower triangle holds L, diagonal included
}

func newDenseChol(diag []float64, mat *csrMatrix) *denseChol {
	n := mat.n
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = diag[i]
		end := mat.rowPtr[i+1]
		for idx := mat.rowPtr[i]; idx < end; idx++ {
			a[i*n+int(mat.colIdx[idx])] = mat.vals[idx]
		}
	}
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			d -= a[j*n+k] * a[j*n+k]
		}
		if d <= 0 {
			return nil // not positive definite; caller falls back to IC(0)
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= a[i*n+k] * a[j*n+k]
			}
			a[i*n+j] = s * inv
		}
	}
	return &denseChol{n: n, l: a}
}

// solve overwrites x with A~·b by forward and backward substitution. Both
// sweeps are serial in fixed row order, so the coarse solve never threatens
// the determinism contract.
func (c *denseChol) solve(x, b []float64) {
	n, l := c.n, c.l
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l[i*n+k] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
}

// mgScratch holds one V-cycle's per-level vectors. Level 0's solution and
// right-hand side alias the caller's z and r, so only ax is allocated
// there; index len(levels) is the coarsest grid.
type mgScratch struct {
	ax [][]float64
	b  [][]float64
	x  [][]float64
	// Level-0 line smoother scratch (nil when the stack has no line
	// level): bz is the z-major package right-hand side, xz the extended
	// z-major iterate (package z-major, then spreader and sink as is).
	bz, xz []float64
}

// mgPreconditioner is the assembled hierarchy. It is immutable after
// construction; concurrent solves share it and each draws its V-cycle
// scratch from its own pooled workspace, so a steady-state apply allocates
// nothing.
type mgPreconditioner struct {
	levels []mgLevel
	coarse *denseChol
}

// newMultigrid builds the hierarchy for an nSheets-sheet stack on an
// nx x ny sheet grid. Returns nil when no coarse level can be built — the
// grid too small or odd-edged to halve, or the coarsest Galerkin operator
// not positive definite — in which case the model keeps IC(0).
func newMultigrid(nSheets, nx, ny int, diag []float64, mat *csrMatrix) *mgPreconditioner {
	if nx%2 != 0 || ny%2 != 0 || nx < 2*mgMinEdge || ny < 2*mgMinEdge {
		return nil
	}
	mg := &mgPreconditioner{}
	lv := mgLevel{n: nSheets * nx * ny, diag: diag, mat: mat}
	// raw holds each level's untruncated Galerkin product. Its buffers
	// start at the fine operator's size, which covers the products of the
	// production stacks (the first, largest one holds ~60% of the fine
	// operator's entries), and carry over from level to level.
	raw := &csrMatrix{colIdx: make([]int32, 0, len(mat.colIdx)), vals: make([]float64, 0, len(mat.vals))}
	addLevel := func(t *transferOp, tol float64) {
		lv.down = t
		finishLevel(&lv)
		mg.levels = append(mg.levels, lv)
		var cDiag []float64
		cDiag, raw = galerkinCoarse(lv.diag, lv.mat, t, raw.colIdx, raw.vals)
		symmetrizeCSR(raw)
		lv = mgLevel{n: t.nCoarse, diag: cDiag, mat: truncateCSR(cDiag, raw, tol)}
	}
	// First coarsening: collapse the package vertically in one transfer —
	// the bottom layer block (independent across its weak interfaces) onto
	// its own coarse sheet, the slaved blocks folded into the spreader. The
	// line smoother solves each package column exactly, so what survives
	// level-0 smoothing is exactly the error this coarse space spans.
	nKeep := 0
	if nSheets > 3 {
		nLayer := nSheets - 2
		if nLayer > 16 { // sweepColumn's stack buffer
			return nil
		}
		lv.line = newLineSmoother(nLayer, nx*ny, diag, mat)
		splits := zSplits(nLayer, nx*ny, diag, mat)
		if len(splits) > 0 {
			nKeep = 1
		}
		t := newZAggTransfer(nLayer, nx, ny, splits, mat)
		nSheets = nKeep + 2
		// Fuse the first lateral halving into the same transfer: the line
		// smoother's surviving error is laterally smooth, so the combined
		// coarse space loses nothing, and the fused level replaces an
		// intermediate grid 4x the size of the one it lands on.
		t = composeTransfers(t, newTransferOp(nSheets, nx, ny))
		nx, ny = nx/2, ny/2
		addLevel(t, mgDropTolDeep)
	}
	// Fold the spreader (and, for a single-layer stack, the package sheet)
	// into the sink along the nesting maps. The bottom layer block stays
	// out of the folds: every path from it to the spreader crosses a weak
	// interface, so its laterally-smooth error is independent of the
	// spreader's and a shared coarse variable cannot represent both (the
	// coarsest direct solve couples the sheets exactly instead).
	for nSheets > nKeep+1 {
		addLevel(newFoldTransfer(nKeep, 1, nSheets, nx, ny), mgDropTolDeep)
		nSheets--
	}
	// Then halve the remaining sheets laterally until an edge would drop
	// below mgMinEdge. The smeared weak cross-sheet couplings down here are
	// cut by the coarse truncation threshold.
	for nx%2 == 0 && ny%2 == 0 && nx >= 2*mgMinEdge && ny >= 2*mgMinEdge {
		addLevel(newTransferOp(nSheets, nx, ny), mgDropTolDeep)
		nx, ny = nx/2, ny/2
	}
	mg.coarse = newDenseChol(lv.diag, lv.mat)
	if mg.coarse == nil {
		return nil
	}
	mg.levels = append(make([]mgLevel, 0, len(mg.levels)), mg.levels...)
	return mg
}

// scratchFor returns ws's V-cycle scratch, allocating it when ws has none
// or holds one laid out for a hierarchy of other level sizes. Workspaces
// are pooled by model shape (see scratchFor), and models of one shape
// share a hierarchy layout unless their grids' aspect or their stacks'
// vertical splits differ; every scratch vector is overwritten before it is
// read, so which model left it there cannot change an answer.
func (mg *mgPreconditioner) scratchFor(ws *workspace) *mgScratch {
	if sc := ws.mg; sc != nil && mg.fits(sc) {
		return sc
	}
	L := len(mg.levels)
	sc := &mgScratch{
		ax: make([][]float64, L),
		b:  make([][]float64, L+1),
		x:  make([][]float64, L+1),
	}
	for k := range mg.levels {
		sc.ax[k] = make([]float64, mg.levels[k].n)
		if k > 0 {
			sc.b[k] = make([]float64, mg.levels[k].n)
			sc.x[k] = make([]float64, mg.levels[k].n)
		}
	}
	sc.b[L] = make([]float64, mg.coarse.n)
	sc.x[L] = make([]float64, mg.coarse.n)
	if ls := mg.levels[0].line; ls != nil {
		sc.bz = make([]float64, ls.nPkg)
		sc.xz = make([]float64, mg.levels[0].n)
	}
	ws.mg = sc
	return sc
}

// fits reports whether sc's vectors have exactly the sizes mg's V-cycle
// uses: the level sizes (each level's coarse side is the next level's
// size) and the line smoother's package size.
func (mg *mgPreconditioner) fits(sc *mgScratch) bool {
	if len(sc.ax) != len(mg.levels) || len(sc.x[len(mg.levels)]) != mg.coarse.n {
		return false
	}
	for k := range mg.levels {
		if len(sc.ax[k]) != mg.levels[k].n {
			return false
		}
	}
	nPkg := 0
	if ls := mg.levels[0].line; ls != nil {
		nPkg = ls.nPkg
	}
	return len(sc.bz) == nPkg
}

// vcycle runs one V(1,1) cycle at level k, overwriting x with the cycle's
// approximation to A~·b (x needs no zeroing: the pre-smooth from a zero
// initial guess writes every entry).
func (mg *mgPreconditioner) vcycle(k int, sc *mgScratch, x, b []float64) {
	if k == len(mg.levels) {
		mg.coarse.solve(x, b)
		return
	}
	lv := &mg.levels[k]
	r := sc.ax[k]
	if lv.line != nil {
		lv.line.forwardZero(lv.dinv, sc.bz, sc.xz, x, b)
		blockUpperResidual(lv.line, r, sc.xz, x)
	} else {
		gsForwardZero(lv.dinv, lv.mat, x, b)
		upperResidual(lv.mat, r, x)
	}
	bc, xc := sc.b[k+1], sc.x[k+1]
	restrict(lv.down, bc, r)
	mg.vcycle(k+1, sc, xc, bc)
	prolongAdd(lv.down, x, xc)
	if lv.line != nil {
		lv.line.backward(lv.dinv, sc.bz, sc.xz, x, b)
	} else {
		gsBackward(lv.dinv, lv.mat, x, b)
	}
}

// precondApply runs one V-cycle (z = M~·r) and returns the fused r·z inner
// product through the workspace's per-stripe slots, mirroring the IC(0)
// apply contract.
func (mg *mgPreconditioner) precondApply(ws *workspace, z, r []float64) float64 {
	mg.vcycle(0, mg.scratchFor(ws), z, r)
	dotStriped(r, z, ws.parts)
	return reduceParts(ws.parts)
}

// upperResidual computes the residual after a forward Gauss–Seidel sweep
// from zero. That sweep makes every lower-triangle-plus-diagonal row sum
// land exactly on b[i], so the residual collapses to r = −U·x, the strict
// upper triangle alone — half an SpMV instead of a full one, at every
// level of the cycle.
func upperResidual(mat *csrMatrix, r, x []float64) {
	rowPtr, colIdx, vals := mat.rowPtr, mat.colIdx, mat.vals
	for i := range mat.n {
		s := 0.0
		end := rowPtr[i+1]
		for idx := rowPtr[i]; idx < end; idx++ {
			j := colIdx[idx]
			if int(j) <= i {
				continue
			}
			s -= vals[idx] * x[j]
		}
		r[i] = s
	}
}

// restrict computes the full-weighting restriction rc = P'·r by
// scattering through P's rows in ascending fine-row order. Each coarse
// entry therefore sums its fine contributions in ascending fine-row order,
// starting from zero — the order a gather over P's counting-sorted
// transpose would use, so no transpose needs to be kept.
func restrict(t *transferOp, rc, r []float64) {
	rowPtr, colIdx, w := t.rowPtr, t.colIdx, t.vals
	clear(rc[:t.nCoarse])
	for i := range t.n {
		ri := r[i]
		end := rowPtr[i+1]
		for idx := rowPtr[i]; idx < end; idx++ {
			rc[colIdx[idx]] += w[idx] * ri
		}
	}
}

// prolongAdd adds the bilinear prolongation of the coarse correction,
// x += P·e — a gather over fine rows.
func prolongAdd(t *transferOp, x, e []float64) {
	rowPtr, colIdx, w := t.rowPtr, t.colIdx, t.vals
	for i := range t.n {
		s := 0.0
		end := rowPtr[i+1]
		for idx := rowPtr[i]; idx < end; idx++ {
			s += w[idx] * e[colIdx[idx]]
		}
		x[i] += s
	}
}
