package thermal

import (
	"runtime"
	"testing"
)

// TestICBuiltOnlyWhereItPreconditions pins the lazy IC(0) factor: a model
// the grid rule hands to multigrid carries no IC(0) factor until the
// verify hook asks for one, and the hooked model then solves with it.
func TestICBuiltOnlyWhereItPreconditions(t *testing.T) {
	small, _ := gridModel(t, 16)
	if small.precond == nil {
		t.Fatal("16x16 model (IC(0) by the grid rule) has no IC(0) factor")
	}
	m, pmap := gridModel(t, 64)
	if m.PreconditionerName() != PrecondMG || m.precond != nil {
		t.Fatalf("64x64 model: precond %q, IC(0) factor built: %v; want mg and none",
			m.PreconditionerName(), m.precond != nil)
	}
	mgBytes := m.Bytes()
	forced(t, m, PrecondIC0)
	if m.precond == nil || m.mg != nil {
		t.Fatal("forcing IC(0) did not build and select the factor")
	}
	if m.Bytes() == mgBytes {
		t.Error("Bytes() did not change when the preconditioner did")
	}
	if _, err := m.Solve(pmap); err != nil {
		t.Fatalf("solve with the on-demand IC(0) factor: %v", err)
	}
}

// TestModelBytesMatchesHeap checks Bytes() against what assembly actually
// leaves live on the heap: the counted slices must account for nearly all
// of it (struct headers are the rest) and never exceed it, on an IC(0)
// model and a multigrid one.
func TestModelBytesMatchesHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation distorts heap accounting")
	}
	for _, n := range []int{16, 64} {
		var before, after runtime.MemStats
		// Drop the idle scratch of earlier tests' solves first: the free
		// lists age on a finalizer after each collection, so scratch they
		// released would land inside the window. Then two cycles: objects
		// reachable only from finalizers outlive the first.
		dropScratch()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		m, _ := gridModel(t, n)
		runtime.GC()
		runtime.ReadMemStats(&after)
		live := float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
		got := float64(m.Bytes())
		if got < 0.9*live || got > 1.02*live {
			t.Errorf("%dx%d %s model: Bytes() = %.0f, live heap after assembly %.0f", n, n, m.PreconditionerName(), got, live)
		}
		runtime.KeepAlive(m)
	}
}

// dropScratch empties every shape's scratch free lists, as two
// collections would.
func dropScratch() {
	scratchByShape.Range(func(_, s any) bool {
		s.(*scratch).age()
		s.(*scratch).age()
		return true
	})
}

// TestNewModelAllocBudget bounds what assembling a production-grid model
// allocates in total, hierarchy setup temporaries included, to twice what
// the model keeps: build garbage is what pushes a serving process's peak
// RSS above its live set.
func TestNewModelAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget holds only uninstrumented")
	}
	m, _ := gridModel(t, 64)
	stack, cfg := m.Stack(), m.Config()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	built, err := NewModel(stack, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := float64(after.TotalAlloc - before.TotalAlloc)
	kept := float64(built.Bytes())
	if alloc > 2*kept {
		t.Errorf("64x64 build allocated %.2f MB to keep %.2f MB (%.2fx), budget 2x", alloc/1e6, kept/1e6, alloc/kept)
	}
	t.Logf("64x64 build allocated %.2f MB to keep %.2f MB (%.2fx)", alloc/1e6, kept/1e6, alloc/kept)
}

// TestHierarchyExactCapacity checks that every array a multigrid model
// retains is sized exactly (cap == len), so Bytes() counts no slack, and
// that the byte count stays within the budgets the hierarchy was sized to.
func TestHierarchyExactCapacity(t *testing.T) {
	for _, c := range []struct {
		n        int
		maxBytes float64
	}{{32, 3e6}, {64, 10e6}} {
		m, _ := gridModel(t, c.n)
		if m.mg == nil {
			t.Fatalf("%dx%d: no multigrid hierarchy", c.n, c.n)
		}
		check := func(what string, length, capacity int) {
			if capacity != length {
				t.Errorf("%dx%d: %s has cap %d > len %d", c.n, c.n, what, capacity, length)
			}
		}
		csr := func(what string, a *csrMatrix) {
			check(what+" rowPtr", len(a.rowPtr), cap(a.rowPtr))
			check(what+" colIdx", len(a.colIdx), cap(a.colIdx))
			check(what+" vals", len(a.vals), cap(a.vals))
		}
		check("levels", len(m.mg.levels), cap(m.mg.levels))
		for k, lv := range m.mg.levels {
			check("diag", len(lv.diag), cap(lv.diag))
			check("dinv", len(lv.dinv), cap(lv.dinv))
			csr("operator", lv.mat)
			csr("transfer", lv.down.csrMatrix)
			if ls := lv.line; ls != nil {
				if k != 0 {
					t.Errorf("%dx%d: line smoother on level %d", c.n, c.n, k)
				}
				check("mz", len(ls.mz), cap(ls.mz))
				check("dinvz", len(ls.dinvz), cap(ls.dinvz))
				for _, a := range []*csrMatrix{ls.lbz, ls.uz, ls.lb, ls.ub} {
					csr("line stream", a)
				}
			}
		}
		check("coarse factor", len(m.mg.coarse.l), cap(m.mg.coarse.l))
		if b := float64(m.Bytes()); b > c.maxBytes {
			t.Errorf("%dx%d: Bytes() = %.2f MB, want <= %.2f MB", c.n, c.n, b/1e6, c.maxBytes/1e6)
		}
	}
}

// BenchmarkNewModelGrid64 times assembly of the production-grid model, the
// multigrid hierarchy included, and reports its allocation volume.
func BenchmarkNewModelGrid64(b *testing.B) {
	m, _ := gridModel(b, 64)
	stack, cfg := m.Stack(), m.Config()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewModel(stack, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
