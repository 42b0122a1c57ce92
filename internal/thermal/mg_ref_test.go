package thermal

import (
	"math"
	"math/rand"
	"testing"

	"chiplet25d/internal/floorplan"
)

// The hierarchy stores each operator once: restriction scatters through
// P's rows instead of gathering over a kept transpose, and the level-0
// residual reads the package rows' later-block couplings from the z-major
// sweep streams instead of a full sheet-major split. The references below
// are the gathers those replaced, kept so the tests can hold the new
// kernels to bit-identical answers.

// restrictByTransposeRef is the transpose-gather restriction:
// rc[j] = Σ P'(j,i)·r[i], summed in ascending fine-row order.
func restrictByTransposeRef(t *transferOp, rc, r []float64) {
	pt := t.transpose(t.nCoarse)
	for j := range t.nCoarse {
		s := 0.0
		for q := pt.rowPtr[j]; q < pt.rowPtr[j+1]; q++ {
			s += pt.vals[q] * r[pt.colIdx[q]]
		}
		rc[j] = s
	}
}

// upperSplitRef is the full sheet-major later-block split of the level-0
// operator: every row's couplings to later blocks (package columns to the
// right and the spreader for package rows; the strict upper triangle for
// spreader and sink rows), in-column vertical links excluded.
func upperSplitRef(ls *lineSmoother, mat *csrMatrix) *csrMatrix {
	nc, nPkg := ls.nc, ls.nPkg
	return buildCSR(mat.n, func(emit func(int, int32, float64)) {
		for i := 0; i < mat.n; i++ {
			for idx := mat.rowPtr[i]; idx < mat.rowPtr[i+1]; idx++ {
				j := int(mat.colIdx[idx])
				later := j > i
				if i < nPkg && j < nPkg {
					later = j%nc > i%nc
				}
				if later {
					emit(i, int32(j), mat.vals[idx])
				}
			}
		}
	})
}

// refStackModel builds a multigrid model on an n x n grid for a 2D
// (single-chip) or 2.5D (2x2 chiplets) stack.
func refStackModel(t *testing.T, chiplets, n int) *Model {
	t.Helper()
	pl := floorplan.SingleChip()
	if chiplets > 1 {
		var err error
		if pl, err = floorplan.UniformGrid(2, 2); err != nil {
			t.Fatal(err)
		}
	}
	stack, err := floorplan.BuildStack(pl)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = n, n
	m, err := NewModel(stack, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return forced(t, m, PrecondMG)
}

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

var refStacks = []struct {
	name     string
	chiplets int
}{{"2D", 1}, {"2.5D", 4}}

// TestRestrictMatchesTransposeGather holds the scattering restriction to
// the transpose gather, bit for bit, at every level of the hierarchy.
func TestRestrictMatchesTransposeGather(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, st := range refStacks {
		for _, n := range []int{8, 16, 32, 64} {
			m := refStackModel(t, st.chiplets, n)
			for k, lv := range m.mg.levels {
				r := randomVec(rng, lv.n)
				got := randomVec(rng, lv.down.nCoarse) // restrict must overwrite
				want := make([]float64, lv.down.nCoarse)
				restrict(lv.down, got, r)
				restrictByTransposeRef(lv.down, want, r)
				sameBits(t, st.name+" restrict", got, want)
				if t.Failed() {
					t.Fatalf("%s grid %d level %d", st.name, n, k)
				}
			}
		}
	}
}

// TestBlockResidualMatchesUpperGather holds the level-0 residual, read
// from the z-major stream and the point rows, to the gather over the full
// sheet-major later-block split, bit for bit.
func TestBlockResidualMatchesUpperGather(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, st := range refStacks {
		for _, n := range []int{8, 16, 32, 64} {
			m := refStackModel(t, st.chiplets, n)
			lv := &m.mg.levels[0]
			ls := lv.line
			if ls == nil {
				t.Fatalf("%s grid %d: no line smoother on level 0", st.name, n)
			}
			ub := upperSplitRef(ls, lv.mat)
			x := randomVec(rng, lv.n)
			xz := make([]float64, lv.n)
			ls.packZ(xz, x)
			copy(xz[ls.nPkg:], x[ls.nPkg:])
			got := randomVec(rng, lv.n)
			want := make([]float64, lv.n)
			blockUpperResidual(ls, got, xz, x)
			for i := range want {
				want[i] = gatherRow(ub, i, x)
			}
			sameBits(t, st.name+" residual", got, want)
		}
	}
}
