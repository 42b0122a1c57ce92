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
		// Two cycles: pooled scratch of earlier tests' models survives the
		// first in the pools' victim caches.
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
