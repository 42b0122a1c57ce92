package thermal

import "fmt"

// Verification-only hooks. PerturbLinksForVerify serves internal/verify's
// mutation smoke test: the harness must be proven to fail on a model whose
// conductances are wrong, otherwise a passing suite says nothing.
// ForcePreconditionerForVerify lets the differential checks run both
// preconditioners on one system.

// PerturbLinksForVerify scales every off-diagonal conductance of the
// finalized system by a seeded per-link factor in [1-frac, 1-frac/2),
// leaving the diagonal (and the convection/board boundary terms) untouched.
// That models the classic assembly bug — link and diagonal contributions
// computed from different conductance values — which no consistent network
// can exhibit: row sums stop telescoping, so the solved field leaks heat
// into a phantom ground and both the energy-balance invariant and the
// golden corpus must detect it.
//
// The perturbed matrix stays symmetric positive definite for any
// 0 < frac < 1: each symmetric pair (i,j)/(j,i) is scaled by the same
// factor s_ij < 1 (the factor is derived from the unordered pair, not the
// entry), so A' = A_consistent + D where A_consistent is the valid
// conductance matrix assembled from the scaled links and D is the
// non-negative diagonal left behind by the stale row sums. The stale IC(0)
// preconditioner remains a valid SPD preconditioner, so CG still converges.
//
// Test-only: callers must perturb before any solve runs and must not share
// the model. Production code never calls this.
func (m *Model) PerturbLinksForVerify(seed int64, frac float64) {
	if frac <= 0 || frac >= 1 {
		return
	}
	for i := 0; i < m.csr.n; i++ {
		for idx := m.csr.rowPtr[i]; idx < m.csr.rowPtr[i+1]; idx++ {
			j := int(m.csr.colIdx[idx])
			lo, hi := i, j
			if lo > hi {
				lo, hi = hi, lo
			}
			h := mixForVerify(uint64(seed) ^ uint64(lo)<<32 ^ uint64(hi))
			u := float64(h>>11) / (1 << 53) // [0, 1)
			m.csr.vals[idx] *= 1 - frac + frac/2*u
		}
	}
}

// ForcePreconditionerForVerify switches the model's solves to the named
// preconditioner, PrecondIC0 or PrecondMG, overriding the grid rule (see
// mgMinGridEdge). Forcing multigrid fails when the coarsener declines the
// geometry.
//
// Test-only: callers must force before any solve runs and must not share
// the model. Production code never calls this.
func (m *Model) ForcePreconditionerForVerify(name string) error {
	switch name {
	case PrecondIC0:
		m.useIC0()
	case PrecondMG:
		if m.mg == nil && !m.useMultigrid() {
			return fmt.Errorf("thermal: multigrid declines the %dx%d grid", m.cfg.Nx, m.cfg.Ny)
		}
	default:
		return fmt.Errorf("thermal: unknown preconditioner %q (want %q or %q)", name, PrecondIC0, PrecondMG)
	}
	return nil
}

// mixForVerify is the splitmix64 finalizer: a cheap, stateless way to turn
// an (seed, pair) coordinate into a reproducible factor.
func mixForVerify(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
