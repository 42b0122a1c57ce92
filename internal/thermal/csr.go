package thermal

import "chiplet25d/internal/floorplan"

// Compressed sparse row storage for the assembled conductance matrix.
//
// Every row holds its off-diagonal entries with column indices sorted
// ascending, so the matvec is a gather-only row sweep — sequential reads of
// rowPtr/colIdx/vals, one sequential write per row, no write sharing
// between rows. The diagonal stays in its own dense array so the transient
// solver can reuse the same CSR off-diagonals under a shifted diagonal.

// csrMatrix holds the strictly off-diagonal entries of a symmetric matrix
// in row-major CSR form with ascending column indices per row. Values are
// the matrix entries themselves (for a conductance matrix: -g).
type csrMatrix struct {
	n      int
	rowPtr []int32
	colIdx []int32
	vals   []float64
}

// assembleCSR builds the model's off-diagonal CSR straight from the link
// generator, with no intermediate edge list: a counting pass sizes every
// row, a fill pass writes both directed copies of each conductance into
// its row (accumulating the diagonal link by link, a then b, in assembly
// order), and a per-row insertion sort orders the columns. The sort is
// stable and rows hold at most nine entries, so a row's entries end up in
// (column, assembly) order — the order the IC(0) factorization consumes.
func (m *Model) assembleCSR(props [][]floorplan.LayerProps) *csrMatrix {
	n := m.nNodes
	rowPtr := make([]int32, n+1)
	m.forEachLink(props, func(a, b int, g float64) {
		if usableConductance(g) {
			rowPtr[a+1]++
			rowPtr[b+1]++
		}
	})
	for r := 0; r < n; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	nnz := rowPtr[n]
	colIdx := make([]int32, nnz)
	vals := make([]float64, nnz)
	// rowPtr[r] serves as row r's fill cursor; after the pass it has
	// advanced to the row's end, i.e. to the original rowPtr[r+1].
	diag := m.diag
	m.forEachLink(props, func(a, b int, g float64) {
		if !usableConductance(g) {
			return
		}
		diag[a] += g
		diag[b] += g
		p := rowPtr[a]
		colIdx[p], vals[p] = int32(b), -g
		rowPtr[a]++
		p = rowPtr[b]
		colIdx[p], vals[p] = int32(a), -g
		rowPtr[b]++
	})
	copy(rowPtr[1:], rowPtr[:n])
	rowPtr[0] = 0
	for r := 0; r < n; r++ {
		lo, hi := rowPtr[r], rowPtr[r+1]
		for i := lo + 1; i < hi; i++ {
			c, v := colIdx[i], vals[i]
			j := i
			for ; j > lo && colIdx[j-1] > c; j-- {
				colIdx[j], vals[j] = colIdx[j-1], vals[j-1]
			}
			colIdx[j], vals[j] = c, v
		}
	}
	return &csrMatrix{n: n, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// buildCSR assembles an n-row CSR matrix into exactly sized arrays. gen
// must emit every entry in row order (rows ascending, and within a row in
// the order the entries are to be stored); it runs twice, a counting pass
// that sizes the rows and a fill pass that writes them, and must emit the
// same entries both times.
func buildCSR(n int, gen func(emit func(row int, col int32, v float64))) *csrMatrix {
	rowPtr := make([]int32, n+1)
	gen(func(row int, _ int32, _ float64) { rowPtr[row+1]++ })
	for r := 0; r < n; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	colIdx := make([]int32, rowPtr[n])
	vals := make([]float64, rowPtr[n])
	k := 0
	gen(func(_ int, col int32, v float64) {
		colIdx[k], vals[k] = col, v
		k++
	})
	return &csrMatrix{n: n, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// transpose returns the nCols-row transpose of a, built by a counting sort
// over a's columns: row j of the result lists a's entries in column j, in
// ascending order of a's rows.
func (a *csrMatrix) transpose(nCols int) *csrMatrix {
	t := &csrMatrix{n: nCols, rowPtr: make([]int32, nCols+1)}
	for _, c := range a.colIdx {
		t.rowPtr[c+1]++
	}
	for j := 0; j < nCols; j++ {
		t.rowPtr[j+1] += t.rowPtr[j]
	}
	t.colIdx = make([]int32, len(a.colIdx))
	t.vals = make([]float64, len(a.vals))
	off := make([]int32, nCols)
	copy(off, t.rowPtr[:nCols])
	for i := 0; i < a.n; i++ {
		for e := a.rowPtr[i]; e < a.rowPtr[i+1]; e++ {
			j := a.colIdx[e]
			q := off[j]
			off[j]++
			t.colIdx[q] = int32(i)
			t.vals[q] = a.vals[e]
		}
	}
	return t
}

// bytes returns the capacity of the matrix's arrays in bytes.
func (a *csrMatrix) bytes() int {
	if a == nil {
		return 0
	}
	return 4*cap(a.rowPtr) + 4*cap(a.colIdx) + 8*cap(a.vals)
}
