package thermal

import (
	"context"
	"errors"
	"math"
	"testing"

	"chiplet25d/internal/obs"
)

// leakageLikeMaps returns k chip power maps shaped like a leakage loop's
// passes: the base map, then increments that shrink pass by pass, each
// with its own spatial ripple, so the increments are linearly independent.
func leakageLikeMaps(m *Model, base []float64, k int) [][]float64 {
	nx := m.grid.Nx
	maps := make([][]float64, k)
	for p := range maps {
		pm := make([]float64, len(base))
		for c, v := range base {
			ix, iy := c%nx, c/nx
			tilt := 1 + 0.3*float64(ix)/float64(nx) + 0.1*math.Cos(float64(p*(ix+2*iy)))
			pm[c] = v * (1 + 0.2*(1-math.Pow(0.4, float64(p)))*tilt)
		}
		maps[p] = pm
	}
	return maps
}

// TestSequenceMatchesColdSolves runs secant-seeded passes and checks every
// pass against a cold solve of the same power map: the seed may move the
// iteration count, never the fixed point. The spans record the seed kind,
// a basis that grows by one per pass, and a seed residual below the
// ambient start's.
func TestSequenceMatchesColdSolves(t *testing.T) {
	for _, n := range []int{16, 32} {
		cfg := testConfig(n)
		cfg.Tolerance = 1e-10
		m, base := gridModel(t, n)
		m, err := NewModel(m.stack, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace("test", "sequence_test")
		ctx := obs.WithTrace(context.Background(), tr)
		seq := m.NewSequence()
		seqIters, coldIters := 0, 0
		for p, pmap := range leakageLikeMaps(m, base, 5) {
			got, err := seq.Solve(ctx, pmap)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := m.SolveCtx(ctx, pmap)
			if err != nil {
				t.Fatal(err)
			}
			worst := 0.0
			for i := range cold.T {
				worst = math.Max(worst, math.Abs(got.T[i]-cold.T[i]))
			}
			if worst > 1e-6 {
				t.Errorf("%dx%d pass %d: %.3g °C from the cold solve", n, n, p+1, worst)
			}
			seqIters += got.Iterations
			coldIters += cold.Iterations
		}
		seq.Release()
		tr.Finish()

		var seeds []string
		var ranks []float64
		var res0 []float64
		tr.Snapshot().Walk(func(sp *obs.SpanJSON) {
			if sp.Name != "thermal.cg" {
				return
			}
			seeds = append(seeds, sp.Attrs["seed"].(string))
			ranks = append(ranks, toFloat(sp.Attrs["basis_rank"]))
			res0 = append(res0, toFloat(sp.Attrs["seed_residual"]))
		})
		// The trace interleaves the sequence's passes with the cold solves.
		for p := 0; p < 5; p++ {
			wantSeed := seedSecant
			if p == 0 {
				wantSeed = seedAmbient
			}
			if seeds[2*p] != wantSeed || ranks[2*p] != float64(p) {
				t.Errorf("%dx%d pass %d: span seed %q rank %v, want %q rank %d", n, n, p+1, seeds[2*p], ranks[2*p], wantSeed, p)
			}
			if p > 0 && res0[2*p] >= res0[2*p+1] {
				t.Errorf("%dx%d pass %d: secant seed residual %.3g not below the ambient start's %.3g", n, n, p+1, res0[2*p], res0[2*p+1])
			}
		}
		if seqIters >= coldIters {
			t.Errorf("%dx%d: seeded passes took %d CG iterations, cold solves %d", n, n, seqIters, coldIters)
		}
	}
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case float64:
		return x
	}
	return math.NaN()
}

// TestSequenceIsPure feeds two sequences the same passes — the second on
// the first's pooled, stale buffers — and requires bit-identical fields:
// a sequence's answers depend on its own passes only.
func TestSequenceIsPure(t *testing.T) {
	m, base := gridModel(t, 16)
	maps := leakageLikeMaps(m, base, 7)
	run := func() [][]float64 {
		seq := m.NewSequence()
		defer seq.Release()
		var out [][]float64
		for _, pmap := range maps {
			res, err := seq.Solve(context.Background(), pmap)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, append([]float64(nil), res.T...))
		}
		return out
	}
	a := run()
	// A differently-fed sequence in between leaves other data in the pool.
	other := m.NewSequence()
	for _, pmap := range leakageLikeMaps(m, base, 3) {
		scaled := make([]float64, len(pmap))
		for i, v := range pmap {
			scaled[i] = 3 * v
		}
		if _, err := other.Solve(context.Background(), scaled); err != nil {
			t.Fatal(err)
		}
	}
	other.Release()
	b := run()
	for p := range a {
		sameFloats(t, "pass field", b[p], a[p])
	}
}

// TestSequenceBasis pins the basis bookkeeping: a pure rescaling of the
// first map adds no direction (rank stays 1), independent increments grow
// the basis up to maxSecantBasis and no further, and a zero first map
// (an idle chip) contributes nothing.
func TestSequenceBasis(t *testing.T) {
	m, base := gridModel(t, 16)
	solve := func(seq *Sequence, pmap []float64) {
		t.Helper()
		if _, err := seq.Solve(context.Background(), pmap); err != nil {
			t.Fatal(err)
		}
	}
	seq := m.NewSequence()
	for _, f := range []float64{1, 1.2, 1.3} {
		scaled := make([]float64, len(base))
		for i, v := range base {
			scaled[i] = f * v
		}
		solve(seq, scaled)
	}
	if seq.rank != 1 {
		t.Errorf("rescaled passes: rank %d, want 1", seq.rank)
	}
	seq.Release()

	seq = m.NewSequence()
	for _, pmap := range leakageLikeMaps(m, base, maxSecantBasis+3) {
		solve(seq, pmap)
	}
	if seq.rank != maxSecantBasis {
		t.Errorf("independent passes: rank %d, want %d", seq.rank, maxSecantBasis)
	}
	seq.Release()

	seq = m.NewSequence()
	solve(seq, make([]float64, len(base)))
	if seq.rank != 0 {
		t.Errorf("zero-power pass: rank %d, want 0", seq.rank)
	}
	solve(seq, base)
	if seq.rank != 1 {
		t.Errorf("zero-power pass then power: rank %d, want 1", seq.rank)
	}
	seq.Release()
}

// TestSequenceErrors covers the failure paths: a canceled context and a
// malformed power map (short, negative, NaN or infinite) fail the pass
// without disturbing the sequence, which then continues from its last good
// pass.
func TestSequenceErrors(t *testing.T) {
	m, base := gridModel(t, 16)
	seq := m.NewSequence()
	defer seq.Release()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := seq.Solve(canceled, base); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled pass: got %v, want context.Canceled", err)
	}
	if _, err := seq.Solve(context.Background(), base[:5]); err == nil {
		t.Fatal("short power map accepted")
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		pmap := append([]float64(nil), base...)
		pmap[3] = bad
		if _, err := seq.Solve(context.Background(), pmap); err == nil {
			t.Fatalf("power %v accepted", bad)
		}
	}
	first, err := seq.Solve(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := m.Solve(base)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "first pass after failed passes", first.T, cold.T)
}
