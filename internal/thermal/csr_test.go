package thermal

import (
	"fmt"
	"math"
	"testing"

	"chiplet25d/internal/floorplan"
)

// link is one symmetric conductance between nodes a and b: the edge-list
// form assembly used before assembleCSR wrote the CSR in place. It stays
// here as the reference the in-place assembly is checked against, and as
// the compact way the preconditioner tests spell small matrices.
type link struct {
	a, b int32
	g    float64
}

// newCSR expands a symmetric edge list into full CSR form with two stable
// counting-sort passes, by column and then by row: the pre-assembleCSR
// path, kept as the reference for TestAssembleCSRMatchesEdgeList.
func newCSR(n int, links []link) *csrMatrix {
	nnz := 2 * len(links)
	colPtr := make([]int32, n+1)
	for _, l := range links {
		colPtr[l.b+1]++
		colPtr[l.a+1]++
	}
	for c := 0; c < n; c++ {
		colPtr[c+1] += colPtr[c]
	}
	off := make([]int32, n)
	copy(off, colPtr[:n])
	rowTmp := make([]int32, nnz)
	valTmp := make([]float64, nnz)
	for _, l := range links {
		p := off[l.b]
		off[l.b]++
		rowTmp[p] = l.a
		valTmp[p] = -l.g
		p = off[l.a]
		off[l.a]++
		rowTmp[p] = l.b
		valTmp[p] = -l.g
	}
	rowPtr := make([]int32, n+1)
	for _, r := range rowTmp {
		rowPtr[r+1]++
	}
	for r := 0; r < n; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	copy(off, rowPtr[:n])
	colIdx := make([]int32, nnz)
	vals := make([]float64, nnz)
	for c := 0; c < n; c++ {
		for p := colPtr[c]; p < colPtr[c+1]; p++ {
			r := rowTmp[p]
			q := off[r]
			off[r]++
			colIdx[q] = int32(c)
			vals[q] = valTmp[p]
		}
	}
	return &csrMatrix{n: n, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// newICPreconditioner builds IC(0) from an edge list.
func newICPreconditioner(n int, diag []float64, links []link) *icPreconditioner {
	return newICFromCSR(n, diag, newCSR(n, links))
}

// edgeListAssembly rebuilds m's diagonal and CSR the way assembly did
// before assembleCSR: append every usable link to an edge list while
// accumulating the diagonal, add the convection and board terms, then
// expand the list with newCSR.
func edgeListAssembly(m *Model) ([]float64, *csrMatrix) {
	props := make([][]floorplan.LayerProps, m.nLayer)
	for l, layer := range m.stack.Layers {
		props[l] = floorplan.RasterizeLayer(layer, m.grid)
	}
	diag := make([]float64, m.nNodes)
	var links []link
	m.forEachLink(props, func(a, b int, g float64) {
		if g <= 0 || math.IsNaN(g) || math.IsInf(g, 0) {
			return
		}
		links = append(links, link{a: int32(a), b: int32(b), g: g})
		diag[a] += g
		diag[b] += g
	})
	for c, g := range m.convG {
		diag[m.sinkBase+c] += g
	}
	for c, g := range m.boardG {
		diag[c] += g
	}
	return diag, newCSR(m.nNodes, links)
}

// TestAssembleCSRMatchesEdgeList proves the in-place assembly bit-identical
// to the edge-list path it replaced: diag, rowPtr, colIdx and vals, on 2D,
// 2.5D and board-path stacks at grids 8 to 64.
func TestAssembleCSRMatchesEdgeList(t *testing.T) {
	grid25, err := floorplan.UniformGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	stacks := []struct {
		name  string
		pl    floorplan.Placement
		board float64
	}{
		{"2d", floorplan.SingleChip(), 0},
		{"2.5d", grid25, 0},
		{"board", grid25, 50},
	}
	for _, st := range stacks {
		for _, n := range []int{8, 16, 32, 64} {
			t.Run(fmt.Sprintf("%s/%d", st.name, n), func(t *testing.T) {
				stack, err := floorplan.BuildStack(st.pl)
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig()
				cfg.Nx, cfg.Ny = n, n
				cfg.BoardHeatTransferCoeff = st.board
				m, err := NewModel(stack, cfg)
				if err != nil {
					t.Fatal(err)
				}
				diag, ref := edgeListAssembly(m)
				sameFloats(t, "diag", m.diag, diag)
				sameInts(t, "rowPtr", m.csr.rowPtr, ref.rowPtr)
				sameInts(t, "colIdx", m.csr.colIdx, ref.colIdx)
				sameFloats(t, "vals", m.csr.vals, ref.vals)
			})
		}
	}
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func sameInts(t *testing.T, what string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}
