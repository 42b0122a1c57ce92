// Package verify is the physics verification harness: it validates the
// optimized thermal/power/search stack against independent ground truth
// rather than against itself, so the determinism contracts elsewhere in the
// repo (serial ≡ parallel, memo ≡ recompute) cannot hide a bug both paths
// share. Five tiers:
//
//   - Analytic oracles (oracle.go): closed-form layered-slab solutions the
//     grid solver must reproduce within documented tolerances, plus a
//     mesh-refinement study that reports the observed convergence order.
//   - Physics invariants (invariants.go): energy balance, the discrete
//     maximum principle, superposition of the linear solve, and mirror
//     symmetry — each property-tested over randomized floorplans and power
//     maps from a seeded generator.
//   - Differential references (reference.go): an independently assembled
//     Gauss-Seidel solver cross-checked against the CSR/CG kernel, and
//     org.ReferenceSimulate (the unmemoized, single-threaded evaluator)
//     cross-checked against the Engine memo.
//   - Drift detection (drift.go): the spatial surrogate's calibration bound
//     re-measured against fresh, non-DoE simulations, and the spatial-tier
//     search differenced winner-for-winner against the full-fidelity search.
//   - Golden regression corpus (golden.go): committed end-to-end results —
//     direct solves, leakage-coupled simulations, search winners, and the
//     fig6/7/8 reduced tables — compared at documented tolerances, with a
//     `go test ./internal/verify -update` refresh flow.
//
// A mutation smoke test (mutation.go) proves the net is live: a seeded 1%
// conductivity perturbation must be caught by at least two independent
// checks (energy balance and the golden corpus), otherwise the harness
// itself fails.
//
// Two entry points share the Checks registry: `go test ./internal/verify`
// (the CI fast tier; add -long for the full tier) and the cmd/chipletverify
// binary, which embeds the golden corpus so it runs standalone.
package verify

import "fmt"

// Tolerances, in one place so the docs and the checks cannot drift apart.
// Each constant documents why its magnitude is safe: the oracle tolerances
// bound the isothermal-limit modeling error, the invariant tolerances bound
// the CG residual's reach, and the golden tolerance bounds nothing — the
// corpus values are deterministic, so it only absorbs future last-ulp
// libm/compiler drift.
const (
	// SlabOracleTolC bounds |solver - closed form| for the isothermal-limit
	// slab oracles. With the spreader/sink conductivity raised to 1e7
	// W/(m·K) the lateral spreading resistance is ~2.5e4 times smaller than
	// at copper, leaving a modeling error of order (spreading ΔT at
	// copper) * 4e-5 ≈ 1e-4 °C; observed errors sit near 1e-5 °C.
	SlabOracleTolC = 5e-3

	// EnergyBalanceRelTol bounds |Σ P_in - heat_out| / Σ P_in. At the
	// verification solves' CG tolerance of 1e-10 the residual's energy
	// reach is below 1e-8 of the injected power; observed imbalances sit
	// near 1e-12.
	EnergyBalanceRelTol = 1e-6

	// MaxPrincipleTolC is the slack on the discrete maximum principle
	// (global max on the source layer, global min at ambient): exact for
	// the true solution of the M-matrix system, so only CG error remains.
	MaxPrincipleTolC = 1e-6

	// SuperpositionTolC bounds |T(P1+P2) - T(P1) - T(P2) + ambient| per
	// node. Superposition is exact for the linear system; three CG solves
	// at tolerance 1e-10 leave errors near 1e-8 °C.
	SuperpositionTolC = 1e-5

	// MirrorTolC bounds |T(P) - mirror(T(mirror(P)))| per node on a
	// mirror-symmetric floorplan. Rasterization of mirrored geometry is
	// bit-exact on the shared grid, so again only CG error remains.
	MirrorTolC = 1e-5

	// GaussSeidelTolC bounds |T_CG - T_GS| per node between the production
	// kernel and the dense-assembled Gauss-Seidel reference, both iterated
	// to relative residual 1e-10. The conductance matrix's condition
	// number amplifies residual into error; observed gaps stay below
	// 1e-6 °C on the verification grids.
	GaussSeidelTolC = 1e-4

	// GoldenTolC is the absolute tolerance on corpus temperatures and the
	// relative tolerance on corpus powers/objective values.
	GoldenTolC = 1e-6

	// VerifyCGTol is the CG relative-residual target used for the oracle,
	// invariant, and differential solves (tighter than the production
	// default of 1e-7, so solver error stays far from every tolerance
	// above).
	VerifyCGTol = 1e-10
)

// Check is one verification: a named, self-contained pass/fail property
// with its tolerance documented where it is asserted.
type Check struct {
	// Name is the stable identifier, "tier/property" (e.g.
	// "invariant/energy-balance"), used by chipletverify -run.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Long marks checks that only run in the full tier (`-long`): finer
	// meshes, more random cases, and the figure goldens.
	Long bool
	// Quick marks checks cheap enough to keep under `go test -short`.
	Quick bool
	// Run executes the check; a nil error is a pass. Detail lines (observed
	// errors, convergence orders) go through ctx.Logf.
	Run func(ctx *Context) error
}

// Context carries the execution mode and a sink for observed-value logging.
type Context struct {
	// Long enables the full tier inside checks that scale their own work
	// (e.g. the convergence study adds its finest mesh).
	Long bool
	// Logf receives human-readable observations (may be nil).
	Logf func(format string, args ...any)
}

func (c *Context) logf(format string, args ...any) {
	if c != nil && c.Logf != nil {
		c.Logf(format, args...)
	}
}

// failf formats a check failure.
func failf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// Checks returns the registry in execution order: oracles first (they
// validate the solver the later tiers lean on), then invariants,
// differentials, goldens, and finally the mutation smoke test that proves
// the preceding checks can fail.
func Checks() []Check {
	return []Check{
		{
			Name:        "oracle/slab-isothermal",
			Description: "uniform slab against the closed-form series-resistance solution (mesh-exact in the isothermal limit)",
			Quick:       true,
			Run:         checkSlabOracle,
		},
		{
			Name:        "oracle/columnar",
			Description: "non-uniform heating with decoupled columns against per-column closed forms",
			Quick:       true,
			Run:         checkColumnarOracle,
		},
		{
			Name:        "oracle/mesh-convergence",
			Description: "peak temperature under mesh refinement: deltas must shrink; observed order reported",
			Run:         checkMeshConvergence,
		},
		{
			Name:        "invariant/energy-balance",
			Description: "Σ power in = heat out through the convection boundary, on randomized floorplans",
			Quick:       true,
			Run:         checkEnergyBalance,
		},
		{
			Name:        "invariant/maximum-principle",
			Description: "global max on the source layer, global min at ambient, on randomized floorplans",
			Quick:       true,
			Run:         checkMaximumPrinciple,
		},
		{
			Name:        "invariant/superposition",
			Description: "solve(P1)+solve(P2) = solve(P1+P2)+ambient on the linear system, on randomized power maps",
			Quick:       true,
			Run:         checkSuperposition,
		},
		{
			Name:        "invariant/mirror-symmetry",
			Description: "mirrored power on a mirror-symmetric floorplan yields the mirrored field",
			Quick:       true,
			Run:         checkMirrorSymmetry,
		},
		{
			Name:        "differential/gauss-seidel",
			Description: "CSR/CG kernel against an independently assembled dense Gauss-Seidel solve",
			Run:         checkGaussSeidel,
		},
		{
			Name:        "differential/mg-ic0",
			Description: "multigrid-preconditioned solves against IC(0) node-for-node",
			Quick:       true,
			Run:         checkMGIC0Differential,
		},
		{
			Name:        "differential/warm-start",
			Description: "self-, neighbor- and secant-seeded solves (the leakage loop runs the last) converge to the cold fixed point",
			Run:         checkWarmStartFixpoint,
		},
		{
			Name:        "differential/reference-evaluator",
			Description: "Engine memo against the unmemoized single-threaded evaluator, bit for bit and order-independent",
			Run:         checkReferenceEvaluator,
		},
		{
			Name:        "differential/sharded-batch",
			Description: "two-node sharded /v1/batch (memo peer-fetch) against standalone sequential requests, bit for bit, including with the peer unreachable",
			Run:         checkShardedBatch,
		},
		{
			Name:        "drift/spatial-calibration",
			Description: "spatial-surrogate predictions at non-DoE points stay within the calibration's own recorded worst-case bound",
			Quick:       true,
			Run:         checkSpatialCalibration,
		},
		{
			Name:        "drift/spatial-parity",
			Description: "spatial-tier search and full-fidelity search pick the identical winner",
			Run:         checkSpatialSearchParity,
		},
		{
			Name:        "cost/monotonicity",
			Description: "economic monotonicity laws (yield, die cost, heatsink capacity, TCO knob directions) on seeded random parameter draws",
			Quick:       true,
			Run:         checkCostMonotonicity,
		},
		{
			Name:        "cost/interior-optimum",
			Description: "base-node $/GIPS-year sweep is minimized at an interior chiplet count, with the monolithic baseline heatsink-starved",
			Quick:       true,
			Run:         checkCostInteriorOptimum,
		},
		{
			Name:        "cost/golden-elaboration",
			Description: "one full server elaboration pinned at 12 significant digits, every intermediate asserted",
			Quick:       true,
			Run:         checkCostGoldenElaboration,
		},
		{
			Name:        "cost/tco-batch-differential",
			Description: "1000-candidate fleet sweep via /v1/batch against sequential /v1/cost/tco calls, bit for bit",
			Run:         checkTCOBatchDifferential,
		},
		{
			Name:        "golden/corpus",
			Description: "committed end-to-end results: direct solves, leakage-coupled sims, search winners",
			Run:         checkGoldenCorpus,
		},
		{
			Name:        "golden/figures",
			Description: "fig6/7/8 reduced tables, byte-exact against committed CSVs",
			Long:        true,
			Run:         checkGoldenFigures,
		},
		{
			Name:        "mutation/smoke",
			Description: "a seeded 1% conductivity perturbation must trip energy balance AND the golden corpus",
			Quick:       true,
			Run:         checkMutationSmoke,
		},
	}
}

// ByName returns the named check.
func ByName(name string) (Check, error) {
	for _, c := range Checks() {
		if c.Name == name {
			return c, nil
		}
	}
	return Check{}, fmt.Errorf("verify: unknown check %q", name)
}
