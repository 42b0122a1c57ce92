package org

// Fidelity identifies which tier of the evaluation ladder answered a
// peak-temperature query. The ladder is ordered cheapest-first: the spatial
// compact model (sub-microsecond, zero-alloc once calibrated), the scalar
// surrogate (one memoized canonical simulation per placement/core count),
// and the full leakage-coupled CG simulation. Lower tiers answer only when
// their prediction lands outside a conservative margin of the decision
// threshold, so escalation — not the cheap model — is what guarantees
// search results match full fidelity.
type Fidelity int

const (
	// FidelityFull is the memoized full leakage-coupled thermal simulation.
	// It is the zero value: an evaluation that never consulted a surrogate
	// was answered at full fidelity.
	FidelityFull Fidelity = iota
	// FidelityScalar is the scalar surrogate calibrated at the canonical
	// DVFS point for the same placement and active-core count.
	FidelityScalar
	// FidelitySpatial is the spatial compact model (internal/surrogate):
	// per-chiplet peak rises from fitted four-term heat-spread kernels.
	FidelitySpatial
)

// String implements fmt.Stringer with the wire names used in obs span
// attributes and serve responses.
func (f Fidelity) String() string {
	switch f {
	case FidelityScalar:
		return "scalar"
	case FidelitySpatial:
		return "spatial"
	default:
		return "full"
	}
}

// EvalPolicy bundles the escalation knobs of one peak-temperature
// evaluation: the feasibility threshold the search decides against and the
// margins below which each surrogate tier must defer upward. It is a
// per-call parameter — engines stay policy-free so searches with different
// policies share one memo and one calibration.
type EvalPolicy struct {
	// ThresholdC is the feasibility threshold the evaluation is decided
	// against (Eq. (6)).
	ThresholdC float64
	// ScalarMarginC gates the scalar surrogate: estimates within this
	// margin of ThresholdC escalate to the full simulation. Negative
	// disables the scalar tier.
	ScalarMarginC float64
	// Spatial enables the spatial tier (calibrating the benchmark's model
	// on first use). Its margin is the class calibration's worst-case
	// error, so a poorly fitting calibration escalates more, never less.
	Spatial bool
}

// evalPolicy derives the evaluation policy from a search configuration.
func (c Config) evalPolicy() EvalPolicy {
	return EvalPolicy{
		ThresholdC:    c.ThresholdC,
		ScalarMarginC: c.SurrogateMarginC,
		Spatial:       c.SpatialSurrogate,
	}
}
