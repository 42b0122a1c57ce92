// Package org implements the paper's primary contribution: thermally-aware
// chiplet organization. It formulates the optimization of Eq. (5) —
// minimize α·IPS_2D/IPS_2.5D(f, p) + β·C_2.5D(n, s1, s2, s3)/C_2D — subject
// to the peak-temperature constraint (Eq. (6)), the interposer size limit
// (Eq. (7)), the geometry equations (Eqs. (8)-(9)) and the center-chiplet
// non-overlap constraint (Eq. (10)), and solves it with the paper's
// three-step multi-start greedy approach:
//
//  1. compute IPS for all 40 (f, p) pairs and C_2.5D for both chiplet
//     counts over discretized interposer sizes;
//  2. sort all (f, p, C_2.5D) combinations by ascending objective value;
//  3. walk the sorted list; for each combination run an m-start greedy
//     search over the spacing design space (s1, s2, s3) at the fixed
//     interposer size, accepting the first placement whose simulated peak
//     temperature meets the threshold.
//
// An exhaustive placement search is provided for validating the greedy
// (the paper reports 99% agreement with ~400x fewer thermal simulations).
package org

import (
	"fmt"

	"chiplet25d/internal/cost"
	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/noc"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/power"
	"chiplet25d/internal/thermal"
)

// NeighborPolicy selects the greedy walk's neighbor-visiting strategy.
type NeighborPolicy int

const (
	// RandomNeighbor visits the six neighbors in random order and moves to
	// the first cooler one (the paper's policy, footnote 2).
	RandomNeighbor NeighborPolicy = iota
	// SteepestDescent evaluates all six neighbors and moves to the coolest.
	SteepestDescent
)

// String implements fmt.Stringer.
func (p NeighborPolicy) String() string {
	if p == SteepestDescent {
		return "steepest"
	}
	return "random"
}

// Objective holds the user-specified weight factors of Eq. (5).
type Objective struct {
	Alpha float64 // weight on (inverse) normalized performance
	Beta  float64 // weight on normalized cost
}

// Validate checks the weights.
func (o Objective) Validate() error {
	if o.Alpha < 0 || o.Beta < 0 {
		return fmt.Errorf("org: objective weights must be non-negative, got α=%g β=%g", o.Alpha, o.Beta)
	}
	if o.Alpha == 0 && o.Beta == 0 {
		return fmt.Errorf("org: objective weights must not both be zero")
	}
	return nil
}

// Objective-mode names for Config.ObjectiveMode.
const (
	// ObjectiveEq5 ranks combinations by the paper's Eq. (5) weighted sum
	// (the default; the empty string aliases it).
	ObjectiveEq5 = "eq5"
	// ObjectiveTCO ranks combinations by annual datacenter dollars per
	// sustained GIPS from the cost.TCOParams server elaboration, with the
	// heatsink capacity as an additional feasibility filter. The thermal
	// constraint (Eq. (6)) still gates every candidate.
	ObjectiveTCO = "tco"
)

// Config parameterizes one optimization run.
type Config struct {
	// Benchmark is the workload being optimized for.
	Benchmark perf.Benchmark
	// Objective holds α and β.
	Objective Objective
	// ObjectiveMode selects how combinations are ranked: ObjectiveEq5
	// (default) or ObjectiveTCO. Unlike wall-clock knobs, the mode — and
	// every TCO constant below — changes which organization wins, so both
	// are part of a search's cache identity (see serve.searchKey).
	ObjectiveMode string
	// TCO parameterizes the datacenter elaboration when ObjectiveMode is
	// ObjectiveTCO: tech node, heatsink feasibility, lane packing, PUE,
	// energy price, depreciation. Lane power for the ranking is the
	// a-priori nominal draw (power.TotalNominal) — deterministic and
	// temperature-independent — while thermal feasibility stays with the
	// engine's evaluation ladder.
	TCO cost.TCOParams
	// ThresholdC is T_threshold of Eq. (6) (the paper's default is 85 °C).
	ThresholdC float64
	// ChipletCounts lists the chiplet counts to consider (paper: {4, 16}).
	ChipletCounts []int
	// InterposerMinMM, InterposerMaxMM, InterposerStepMM discretize the
	// interposer edge (paper: 20 to 50 mm at 0.5 mm).
	InterposerMinMM, InterposerMaxMM, InterposerStepMM float64
	// Starts is the multi-start count m (paper: 10).
	Starts int
	// Seed makes the random start/neighbor choices reproducible.
	Seed int64
	// NeighborPolicy selects how the greedy walk visits neighbors. The
	// paper picks a random neighbor (footnote 2: the coolest neighbor does
	// not necessarily lead to a local minimum, and a fixed order would
	// bias the walk); SteepestDescent is provided for the ablation.
	NeighborPolicy NeighborPolicy
	// SearchWorkers bounds how many greedy restarts, exhaustive-scan grid
	// points or spatial-calibration simulations one search evaluates
	// concurrently (0 or 1 = serial); a Lender in the search's context
	// (WithLender) may grant fewer.
	// Results are bit-identical to the serial search for a fixed Seed: each
	// restart draws from its own RNG stream derived from the root seed and
	// the winner is selected by restart (or grid) index, so worker count
	// only changes wall-clock time.
	SearchWorkers int
	// MaxNormCost, when positive, restricts the search to organizations
	// whose cost is at most this multiple of the single-chip cost (the
	// paper's headline improvements are quoted "at the same manufacturing
	// cost", i.e. MaxNormCost = 1).
	MaxNormCost float64
	// SurrogateMarginC enables the verified scalar-surrogate accelerator:
	// peak-temperature estimates farther than this margin from the
	// threshold are decided without a full thermal simulation (the map
	// shape for a fixed placement and active-core count is identical across
	// DVFS points, so one reference simulation calibrates the rest).
	// Set negative to always simulate.
	SurrogateMarginC float64
	// SpatialSurrogate enables the spatial compact-model fidelity tier:
	// a per-benchmark surrogate (internal/surrogate) calibrated against a
	// fixed design-of-experiments set of full simulations predicts the
	// per-chiplet peak vector and decides evaluations that land clearly
	// away from the threshold, before the scalar tier is even consulted.
	// Escalation is conservative: a spatial prediction decides an
	// evaluation only when it lands farther than the calibration's
	// recorded worst-case error from the threshold, so every decided
	// evaluation agrees with the full simulation on which side of the
	// threshold it falls; the verify drift tier pins winner parity against
	// the full-fidelity search on the golden corpus. Off by default.
	SpatialSurrogate bool

	// Substrate configuration.
	Thermal    thermal.Config
	CostParams cost.Params
	Leakage    power.LeakageModel
	SimOpts    power.SimOptions
	Link       noc.LinkParams
	Router     noc.RouterParams
}

// DefaultConfig returns the paper's evaluation setup for a benchmark, with
// a 32x32 thermal grid as the search default (the grid is configurable; the
// figures in EXPERIMENTS.md note the grid they used).
func DefaultConfig(b perf.Benchmark) Config {
	tc := thermal.DefaultConfig()
	tc.Nx, tc.Ny = 32, 32
	return Config{
		Benchmark:        b,
		Objective:        Objective{Alpha: 1, Beta: 0},
		ThresholdC:       85,
		ChipletCounts:    []int{4, 16},
		InterposerMinMM:  20,
		InterposerMaxMM:  floorplan.MaxInterposerEdgeMM,
		InterposerStepMM: 0.5,
		Starts:           10,
		Seed:             1,
		TCO:              cost.DefaultTCOParams(),
		SurrogateMarginC: 3,
		Thermal:          tc,
		CostParams:       cost.DefaultParams(),
		Leakage:          power.DefaultLeakage(),
		SimOpts:          power.DefaultSimOptions(),
		Link:             noc.DefaultLinkParams(),
		Router:           noc.DefaultRouterParams(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Benchmark.Validate(); err != nil {
		return err
	}
	if err := c.Objective.Validate(); err != nil {
		return err
	}
	switch c.ObjectiveMode {
	case "", ObjectiveEq5:
	case ObjectiveTCO:
		if err := c.TCO.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("org: unknown objective mode %q (want %q or %q)", c.ObjectiveMode, ObjectiveEq5, ObjectiveTCO)
	}
	if c.ThresholdC <= c.Thermal.AmbientC {
		return fmt.Errorf("org: threshold %.1f °C must exceed ambient %.1f °C", c.ThresholdC, c.Thermal.AmbientC)
	}
	if len(c.ChipletCounts) == 0 {
		return fmt.Errorf("org: no chiplet counts configured")
	}
	for _, n := range c.ChipletCounts {
		if n != 4 && n != 16 {
			return fmt.Errorf("org: unsupported chiplet count %d (paper organizations support 4 and 16)", n)
		}
	}
	if c.InterposerMinMM <= 0 || c.InterposerMaxMM > floorplan.MaxInterposerEdgeMM ||
		c.InterposerMinMM > c.InterposerMaxMM {
		return fmt.Errorf("org: interposer range [%g, %g] invalid", c.InterposerMinMM, c.InterposerMaxMM)
	}
	if c.InterposerStepMM <= 0 {
		return fmt.Errorf("org: interposer step must be positive")
	}
	if c.Starts < 1 {
		return fmt.Errorf("org: need at least one greedy start")
	}
	if c.SearchWorkers < 0 {
		return fmt.Errorf("org: search workers must be non-negative, got %d", c.SearchWorkers)
	}
	if err := c.Thermal.Validate(); err != nil {
		return err
	}
	if err := c.CostParams.Validate(); err != nil {
		return err
	}
	if err := c.Leakage.Validate(); err != nil {
		return err
	}
	if err := c.Link.Validate(); err != nil {
		return err
	}
	return c.Router.Validate()
}

// Organization is a concrete solution: the chiplet organization plus its
// operating point and evaluated metrics.
type Organization struct {
	// N is the chiplet count (1 for the 2D baseline).
	N int
	// S1, S2, S3 are the chosen spacings (mm).
	S1, S2, S3 float64
	// InterposerMM is the square interposer edge (chip edge for 2D).
	InterposerMM float64
	// Op and ActiveCores are the chosen operating point and p.
	Op          power.DVFSPoint
	ActiveCores int
	// PeakC is the simulated peak temperature.
	PeakC float64
	// IPS is the benchmark performance (GIPS) at (Op, ActiveCores).
	IPS float64
	// CostUSD is the manufacturing cost.
	CostUSD float64
	// NormPerf is IPS / IPS_2D; NormCost is Cost / C_2D.
	NormPerf, NormCost float64
	// ObjValue is the configured objective's value: Eq. (5) under
	// ObjectiveEq5, annual $/GIPS under ObjectiveTCO.
	ObjValue float64
	// TCO is the full server elaboration behind ObjValue when the search
	// ran under ObjectiveTCO; nil otherwise.
	TCO *cost.ServerElab `json:",omitempty"`
	// Placement is the concrete geometry.
	Placement floorplan.Placement
}

// Baseline captures the 2D single-chip reference: its best feasible
// operating point under the threshold and its cost.
type Baseline struct {
	// Feasible reports whether any (f, p) pair meets the threshold.
	Feasible bool
	// BestIPS is the maximum feasible IPS (GIPS).
	BestIPS float64
	// Op and ActiveCores achieve BestIPS.
	Op          power.DVFSPoint
	ActiveCores int
	// PeakC is the simulated peak temperature of the best configuration.
	PeakC float64
	// CostUSD is C_2D.
	CostUSD float64
}

// Result is the outcome of an optimization run.
type Result struct {
	// Feasible reports whether any 2.5D combination met the threshold.
	Feasible bool
	// Best is the chosen organization (zero if infeasible).
	Best Organization
	// Baseline is the 2D reference used for normalization.
	Baseline Baseline
	// ThermalSims counts full thermal simulations run.
	ThermalSims int
	// SurrogateHits counts evaluations decided by a surrogate tier without
	// a full simulation (scalar + spatial; kept as the total for backward
	// compatibility).
	SurrogateHits int
	// ScalarSurrogateHits and SpatialSurrogateHits break SurrogateHits
	// down by fidelity tier.
	ScalarSurrogateHits  int
	SpatialSurrogateHits int
	// CombosTried counts (f, p, C) combinations examined before success.
	CombosTried int
}
