package verify

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/thermal"
)

// Tolerances for the preconditioner and warm-start differentials. Both
// solver paths iterate to the same relative-residual target, so the gaps
// below are bounded by how far a 1e-10 residual can reach through the
// conductance matrix's condition number — the same argument as
// GaussSeidelTolC, and observed gaps sit orders of magnitude inside them.
const (
	// MGIC0TolC bounds |T_mg - T_ic0| per node: two CG solves of the same
	// system to relative residual VerifyCGTol, differing only in
	// preconditioner. Observed gaps stay below 1e-8 °C.
	MGIC0TolC = 1e-6

	// WarmFixpointRelTol bounds the relative per-node gap between a
	// warm-started solve and the cold solve of the same system. A seed at
	// the solution already satisfies the residual test and is returned
	// untouched (gap exactly zero); the bound leaves room for last-ulp
	// drift in the residual evaluation.
	WarmFixpointRelTol = 1e-9

	// WarmNeighborTolC bounds |T_seeded - T_cold| per node when the seed is
	// a converged field of the same operator under a perturbed power map —
	// the leakage loop's in-request warm start. Both solves hit
	// VerifyCGTol, so only CG error remains.
	WarmNeighborTolC = 1e-6
)

// precondModel assembles a verification-tolerance model for placement pl at
// grid n×n, its preconditioner forced to precond through the verify hook
// (empty keeps the grid rule's choice).
func precondModel(pl floorplan.Placement, n int, precond string) (*thermal.Model, error) {
	stack, err := floorplan.BuildStack(pl)
	if err != nil {
		return nil, err
	}
	cfg := thermal.DefaultConfig()
	cfg.Nx, cfg.Ny = n, n
	cfg.Tolerance = VerifyCGTol
	cfg.MaxIterations = 200000
	m, err := thermal.NewModel(stack, cfg)
	if err != nil || precond == "" {
		return m, err
	}
	return m, m.ForcePreconditionerForVerify(precond)
}

// checkMGIC0Differential solves seeded random floorplans with both
// preconditioners and requires node-for-node agreement: the multigrid path
// must change how fast CG converges, never what it converges to. First it
// pins the grid rule that picks between the two paths: a default model uses
// IC(0) at 16x16 and multigrid at 32x32.
func checkMGIC0Differential(ctx *Context) error {
	rng := rand.New(rand.NewSource(caseSeed + 5))
	for _, r := range []struct {
		n    int
		want string
	}{{16, thermal.PrecondIC0}, {32, thermal.PrecondMG}} {
		m, err := precondModel(floorplan.SingleChip(), r.n, "")
		if err != nil {
			return failf("mg-ic0: grid rule: grid %d model: %v", r.n, err)
		}
		if got := m.PreconditionerName(); got != r.want {
			return failf("mg-ic0: grid rule: a default grid-%d model uses %q, want %q", r.n, got, r.want)
		}
	}
	cases := 3
	grids := []int{invariantGridN, 2 * invariantGridN}
	if ctx != nil && ctx.Long {
		cases = 6
	}
	for c := 0; c < cases; c++ {
		pl := randPlacement(rng)
		for _, n := range grids {
			ic0, err := precondModel(pl, n, thermal.PrecondIC0)
			if err != nil {
				return failf("mg-ic0: case %d grid %d: ic0 model: %v", c, n, err)
			}
			mg, err := precondModel(pl, n, thermal.PrecondMG)
			if err != nil {
				return failf("mg-ic0: case %d grid %d: mg model: %v", c, n, err)
			}
			pmap, _ := randPowerMap(rng, mg, pl)
			ri, err := ic0.Solve(pmap)
			if err != nil {
				return failf("mg-ic0: case %d grid %d: ic0 solve: %v", c, n, err)
			}
			rm, err := mg.Solve(pmap)
			if err != nil {
				return failf("mg-ic0: case %d grid %d: mg solve: %v", c, n, err)
			}
			worst := 0.0
			for i := range ri.T {
				if d := math.Abs(ri.T[i] - rm.T[i]); d > worst {
					worst = d
				}
			}
			if worst > MGIC0TolC {
				return failf("mg-ic0: case %d grid %d: worst node gap %.3g °C exceeds %.0e (ic0 %d iters, mg %d iters)",
					c, n, worst, MGIC0TolC, ri.Iterations, rm.Iterations)
			}
			ctx.logf("mg-ic0: case %d grid %d: worst node gap %.3g °C; iterations ic0 %d, mg %d",
				c, n, worst, ri.Iterations, rm.Iterations)
		}
	}
	return nil
}

// checkWarmStartFixpoint pins the seeded solves: a solve seeded with its
// own solution returns that fixed point (relative gap ≤ WarmFixpointRelTol),
// a solve seeded with a same-operator neighbor's field lands within
// WarmNeighborTolC of the cold solve, and so does every pass of a
// thermal.Sequence — the secant-seeded passes the leakage loop runs — fed
// leakage-like power maps.
func checkWarmStartFixpoint(ctx *Context) error {
	rng := rand.New(rand.NewSource(caseSeed + 7))
	for c := 0; c < 3; c++ {
		pl := randPlacement(rng)
		m, err := precondModel(pl, invariantGridN, thermal.PrecondMG)
		if err != nil {
			return failf("warm-start: case %d: model: %v", c, err)
		}
		pmap, _ := randPowerMap(rng, m, pl)
		cold, err := m.Solve(pmap)
		if err != nil {
			return failf("warm-start: case %d: cold solve: %v", c, err)
		}
		// Own-solution seed: already at the fixed point, so the solve must
		// return it (0 iterations of drift at most).
		self, err := m.SolveSeeded(pmap, cold.T)
		if err != nil {
			return failf("warm-start: case %d: self-seeded solve: %v", c, err)
		}
		scale := 0.0
		for _, t := range cold.T {
			if a := math.Abs(t); a > scale {
				scale = a
			}
		}
		worstRel := 0.0
		for i := range cold.T {
			if d := math.Abs(self.T[i]-cold.T[i]) / scale; d > worstRel {
				worstRel = d
			}
		}
		if worstRel > WarmFixpointRelTol {
			return failf("warm-start: case %d: self-seeded solve drifted from its own fixed point by rel %.3g (> %.0e)",
				c, worstRel, WarmFixpointRelTol)
		}
		// Neighbor seed: a converged field of the same operator under a
		// perturbed power map, as the next leakage-loop iteration sees.
		pmap2 := make([]float64, len(pmap))
		for i, p := range pmap {
			pmap2[i] = p * (1 + 0.05*float64(i%3))
		}
		coldN, err := m.Solve(pmap2)
		if err != nil {
			return failf("warm-start: case %d: neighbor cold solve: %v", c, err)
		}
		warmN, err := m.SolveSeeded(pmap2, cold.T)
		if err != nil {
			return failf("warm-start: case %d: neighbor-seeded solve: %v", c, err)
		}
		worst := 0.0
		for i := range coldN.T {
			if d := math.Abs(warmN.T[i] - coldN.T[i]); d > worst {
				worst = d
			}
		}
		if worst > WarmNeighborTolC {
			return failf("warm-start: case %d: neighbor-seeded solve off by %.3g °C (> %.0e) from cold", c, worst, WarmNeighborTolC)
		}
		secWorst, secIters, coldIters, err := checkSecantPasses(m, pmap)
		if err != nil {
			return failf("warm-start: case %d: %v", c, err)
		}
		if secWorst > WarmNeighborTolC {
			return failf("warm-start: case %d: secant-seeded pass off by %.3g °C (> %.0e) from cold", c, secWorst, WarmNeighborTolC)
		}
		ctx.logf("warm-start: case %d: self-seed rel gap %.3g, neighbor-seed gap %.3g °C (cold %d iters, seeded %d), secant passes gap %.3g °C (%d iters, cold %d)",
			c, worstRel, worst, coldN.Iterations, warmN.Iterations, secWorst, secIters, coldIters)
	}
	return nil
}

// checkSecantPasses runs five passes of a thermal.Sequence on m, each a
// leakage-like update of pmap (power growing with a cell-dependent, pass-
// dependent gain), and returns the worst per-node gap to cold solves of
// the same maps, with both runs' total CG iterations.
func checkSecantPasses(m *thermal.Model, pmap []float64) (worst float64, secIters, coldIters int, err error) {
	seq := m.NewSequence()
	defer seq.Release()
	pass := make([]float64, len(pmap))
	for k := 0; k < 5; k++ {
		for i, p := range pmap {
			pass[i] = p * (1 + 0.3*(1-math.Pow(0.5, float64(k)))*(1+0.2*math.Sin(float64((k+1)*i))))
		}
		got, err := seq.Solve(context.Background(), pass)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("secant pass %d: %w", k+1, err)
		}
		cold, err := m.Solve(pass)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("cold solve of secant pass %d: %w", k+1, err)
		}
		for i := range cold.T {
			worst = math.Max(worst, math.Abs(got.T[i]-cold.T[i]))
		}
		secIters += got.Iterations
		coldIters += cold.Iterations
	}
	return worst, secIters, coldIters, nil
}
