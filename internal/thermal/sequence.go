package thermal

import (
	"context"
	"fmt"
	"math"
)

// Leakage-loop seeding (DESIGN.md "Leakage-loop seeding").
//
// The leakage fixed point solves K·T_k = b + R·p_k pass after pass on one
// model, where only the chip-layer power p_k changes. K is linear, so
// every earlier pass already measured the field's response to a power
// increment: X_j = T_j − T_{j−1} answers P_j = p_j − p_{j−1} (and
// X_1 = T_1 − T_amb answers P_1 = p_1, since the ambient field solves the
// zero-power system). Pass k fits its own increment Δp_k by least squares
// onto span{P_j} and starts CG at T_{k−1} + Σ c_j·X_j instead of at
// T_{k−1}: whatever part of Δp_k the earlier increments explain costs no
// iterations. CG still solves pass k's right-hand side to the model's
// tolerance, so the seed moves the iteration count, never the fixed point.
//
// The fit keeps an orthonormal basis q_j of the power increments (modified
// Gram–Schmidt) with matching solution combinations w_j, K·w_j ≈ R·q_j, so
// the coefficients are plain dot products: c = Qᵀ·Δp_k and the seed is
// T_{k−1} + W·c.

// maxSecantBasis bounds the basis; leakage loops rarely run past five
// passes, so four increments cover nearly every loop, and a full basis
// drops its oldest pair.
const maxSecantBasis = 4

// secantDropTol drops a new power increment whose Gram–Schmidt remainder
// falls below this fraction of its norm: it adds no direction the basis
// lacks, and normalizing the remainder would amplify the solver noise in
// its solution increment.
const secantDropTol = 1e-6

// Sequence runs the passes of one fixed-point loop on a model, seeding
// each pass from the loop's own earlier passes (see above). A sequence's
// state comes only from its own passes, so its answers are a pure
// function of the power maps it is fed. Sequences are pooled with the
// model's other scratch: take one with NewSequence, Release it when the
// loop ends. A Sequence must not be used concurrently.
//
// A sequence keeps its CG workspace and a spare field buffer across its
// passes and through the pool: pass k solves into the buffer pass k−2
// left, so a reused sequence takes one field from the model's pool per
// loop, to replace the one the loop's result carried away, however many
// passes it runs. Every buffer is overwritten before it is read.
type Sequence struct {
	m     *Model
	prev  *Result                   // the latest pass; the next Solve supersedes it
	lastP []float64                 // the latest pass's chip power (nCells)
	dp    []float64                 // the current power increment (nCells)
	q     [maxSecantBasis][]float64 // orthonormal power increments (nCells)
	w     [maxSecantBasis][]float64 // their field responses (nNodes)
	rank  int                       // q[:rank], w[:rank] are in use
	ws    *workspace                // CG scratch, taken on first use
	spare []float64                 // a superseded pass's field (nNodes), or nil
}

// NewSequence takes a fresh sequence for the model from its scratch pool.
func (m *Model) NewSequence() *Sequence {
	if s, ok := m.scratch.seq.get(); ok {
		s.m = m
		return s
	}
	s := &Sequence{m: m, lastP: make([]float64, m.nCells), dp: make([]float64, m.nCells)}
	for j := range s.q {
		s.q[j] = make([]float64, m.nCells)
		s.w[j] = make([]float64, m.nNodes)
	}
	return s
}

// Release returns the sequence to its model's scratch pool. The latest
// Result stays with the caller.
func (s *Sequence) Release() {
	pool := &s.m.scratch.seq
	s.m, s.prev, s.rank = nil, nil, 0
	pool.put(s)
}

// Solve runs the sequence's next pass for the given chip-layer power map
// (watts per package-grid cell, length Nx*Ny). The first pass starts at
// ambient; later passes start from the secant extrapolation of the earlier
// ones. The pass supersedes the previous one: the sequence takes its
// field back for a later pass, so callers keep only the latest Result.
// ctx is checked as in Model.SolveCtx.
func (s *Sequence) Solve(ctx context.Context, chipPower []float64) (*Result, error) {
	m := s.m
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("thermal: solve abandoned before starting: %w", err)
	}
	if s.ws == nil {
		s.ws = m.getWorkspace()
	}
	ws := s.ws
	if err := m.chipRHS(ws.rhs, chipPower); err != nil {
		return nil, err
	}
	x := s.spare
	s.spare = nil
	if x == nil {
		x = m.getX()
	}
	kind := seedAmbient
	if s.prev == nil {
		m.fillAmbient(x)
		copy(s.dp, chipPower)
	} else {
		kind = seedSecant
		for c, p := range chipPower {
			s.dp[c] = p - s.lastP[c]
		}
		copy(x, s.prev.T)
		for j := 0; j < s.rank; j++ {
			axpy(dot(s.q[j], s.dp), s.w[j], x)
		}
	}
	res, err := m.runPCG(ctx, ws, x, kind, s.rank)
	if err != nil {
		return nil, err
	}
	s.extend(res.T)
	copy(s.lastP, chipPower)
	if s.prev != nil {
		s.spare = s.prev.T
		s.prev.T, s.prev.model = nil, nil
	}
	s.prev = res
	return res, nil
}

// extend adds the pass just solved, field t for power increment s.dp, to
// the basis: the increment and its response are orthogonalized against
// the basis together, and kept unless the increment is (nearly) in the
// basis's span already.
func (s *Sequence) extend(t []float64) {
	if s.rank == maxSecantBasis {
		q0, w0 := s.q[0], s.w[0]
		copy(s.q[:], s.q[1:])
		copy(s.w[:], s.w[1:])
		s.q[maxSecantBasis-1], s.w[maxSecantBasis-1] = q0, w0
		s.rank--
	}
	q, w := s.q[s.rank], s.w[s.rank]
	copy(q, s.dp)
	if s.prev == nil {
		for i, v := range t {
			w[i] = v - s.m.cfg.AmbientC
		}
	} else {
		for i, v := range t {
			w[i] = v - s.prev.T[i]
		}
	}
	norm0 := math.Sqrt(dot(q, q))
	if norm0 == 0 || math.IsInf(norm0, 0) || math.IsNaN(norm0) {
		return
	}
	for j := 0; j < s.rank; j++ {
		r := dot(s.q[j], q)
		axpy(-r, s.q[j], q)
		axpy(-r, s.w[j], w)
	}
	norm := math.Sqrt(dot(q, q))
	if norm <= secantDropTol*norm0 {
		return
	}
	inv := 1 / norm
	for i := range q {
		q[i] *= inv
	}
	for i := range w {
		w[i] *= inv
	}
	s.rank++
}

// dot returns Σ a[i]·b[i], summed in index order.
func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// axpy computes y += alpha·x.
func axpy(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}
