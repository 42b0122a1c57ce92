// Package chiplet25d reproduces "Leveraging Thermally-Aware Chiplet
// Organization in 2.5D Systems to Reclaim Dark Silicon" (DATE 2018): a
// complete, self-contained implementation of the paper's 256-core 2.5D
// system model and its thermally-aware chiplet organization optimizer.
//
// The library is organized as substrates under internal/ (thermal solver,
// floorplanner, power and performance models, NoC model, cost model) with
// the optimizer in internal/org and every paper figure/table reproducible
// through internal/expt. This package is the public facade: it re-exports
// the types a user composes and provides one-call entry points for the
// common workflows:
//
//	res, err := chiplet25d.Optimize("cholesky", nil)         // Eq. (5) search
//	peak, err := chiplet25d.PeakTemperature(pl, "shock", 1000, 256, nil)
//	cost := chiplet25d.SystemCost(pl)
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// system inventory and the per-experiment index.
package chiplet25d

import (
	"fmt"
	"io"

	"chiplet25d/internal/cost"
	"chiplet25d/internal/expt"
	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/noc"
	"chiplet25d/internal/org"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/power"
	"chiplet25d/internal/thermal"
)

// Re-exported model types. These aliases are the stable public names for
// the library's composable pieces.
type (
	// Benchmark is one workload's performance/power model (Sniper/McPAT
	// substitute).
	Benchmark = perf.Benchmark
	// Placement is a concrete chiplet organization's plan-view geometry.
	Placement = floorplan.Placement
	// Organization is an optimized 2.5D configuration with its metrics.
	Organization = org.Organization
	// OptimizeResult is the outcome of an Eq. (5) optimization run.
	OptimizeResult = org.Result
	// OptimizeConfig parameterizes the optimizer.
	OptimizeConfig = org.Config
	// Objective holds the α/β weights of Eq. (5).
	Objective = org.Objective
	// DVFSPoint is a frequency/voltage operating point (Table II).
	DVFSPoint = power.DVFSPoint
	// CostParams are the Eq. (1)-(4) manufacturing cost constants.
	CostParams = cost.Params
	// ThermalConfig parameterizes the HotSpot-style grid solver.
	ThermalConfig = thermal.Config
)

// Benchmarks returns the paper's eight workloads.
func Benchmarks() []Benchmark { return perf.Benchmarks() }

// BenchmarkByName returns the named workload (e.g. "cholesky").
func BenchmarkByName(name string) (Benchmark, error) { return perf.ByName(name) }

// BenchmarkNames returns the available workload names.
func BenchmarkNames() []string { return perf.Names() }

// SingleChip returns the 2D baseline: the monolithic 18mm x 18mm 256-core
// chip.
func SingleChip() Placement { return floorplan.SingleChip() }

// UniformGrid places r x r chiplets with uniform spacing (mm).
func UniformGrid(r int, spacingMM float64) (Placement, error) {
	return floorplan.UniformGrid(r, spacingMM)
}

// PaperOrg builds the paper's Fig. 4(a) organization for n in {4, 16} with
// spacings s1, s2, s3 (mm).
func PaperOrg(n int, s1, s2, s3 float64) (Placement, error) {
	return floorplan.PaperOrg(n, s1, s2, s3)
}

// NewOptimizeConfig returns the paper's default optimization setup for a
// named benchmark (85 °C threshold, α=1 β=0, chiplet counts {4, 16},
// interposers 20-50 mm, 10 greedy starts).
func NewOptimizeConfig(benchmark string) (OptimizeConfig, error) {
	b, err := perf.ByName(benchmark)
	if err != nil {
		return OptimizeConfig{}, err
	}
	return org.DefaultConfig(b), nil
}

// Optimize runs the thermally-aware chiplet organization search for a
// benchmark. The optional mutate callback adjusts the default configuration
// (threshold, objective weights, grid, ...) before the run.
func Optimize(benchmark string, mutate func(*OptimizeConfig)) (OptimizeResult, error) {
	cfg, err := NewOptimizeConfig(benchmark)
	if err != nil {
		return OptimizeResult{}, err
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := org.NewSearcher(cfg)
	if err != nil {
		return OptimizeResult{}, err
	}
	return s.Optimize()
}

// AppMix is one application and its usage weight for multi-application
// organization selection (the paper's Sec. IV weighted-average extension).
type AppMix = org.AppMix

// MultiAppResult is the outcome of a multi-application organization search.
type MultiAppResult = org.MultiAppResult

// OptimizeMultiApp selects one chiplet organization for a weighted mix of
// applications: each application runs at its own best feasible (f, p) on
// the shared organization, and the weighted Eq. (5) objective scores the
// whole mix. Weights are usage frequencies (u_i in the paper); mutate
// adjusts the defaults as in Optimize.
func OptimizeMultiApp(mix map[string]float64, mutate func(*OptimizeConfig)) (MultiAppResult, error) {
	if len(mix) == 0 {
		return MultiAppResult{}, fmt.Errorf("chiplet25d: empty application mix")
	}
	var apps []AppMix
	for _, name := range BenchmarkNames() { // deterministic order
		w, ok := mix[name]
		if !ok {
			continue
		}
		b, err := perf.ByName(name)
		if err != nil {
			return MultiAppResult{}, err
		}
		apps = append(apps, AppMix{Benchmark: b, Weight: w})
	}
	if len(apps) != len(mix) {
		return MultiAppResult{}, fmt.Errorf("chiplet25d: mix contains unknown benchmarks (have %v)", BenchmarkNames())
	}
	cfg := org.DefaultConfig(apps[0].Benchmark)
	if mutate != nil {
		mutate(&cfg)
	}
	return org.OptimizeMultiApp(cfg, apps)
}

// SimOptions tunes one-shot simulations.
type SimOptions struct {
	// GridN sets the thermal grid (default 64, the paper's resolution).
	GridN int
	// ThresholdC is only used for reporting; simulations always run to
	// convergence.
	ThresholdC float64
}

// SimResult is a one-shot simulation outcome.
type SimResult struct {
	// PeakC is the converged peak chip temperature.
	PeakC float64
	// TotalPowerW includes temperature-adjusted leakage and NoC power.
	TotalPowerW float64
	// MeshPowerW is the NoC share.
	MeshPowerW float64

	field *thermal.Result
}

// HeatmapASCII renders the converged chip-layer temperature field as ASCII
// art (one character per thermal grid cell, hottest = '@').
func (s SimResult) HeatmapASCII() string {
	if s.field == nil {
		return ""
	}
	return s.field.HeatmapASCII()
}

// WriteHeatmapPGM writes the converged field as an 8-bit PGM image,
// auto-scaled to the field's temperature range.
func (s SimResult) WriteHeatmapPGM(w io.Writer) error {
	if s.field == nil {
		return fmt.Errorf("chiplet25d: no thermal field available")
	}
	return s.field.WriteHeatmapPGM(w, 0, 0)
}

// WriteFieldCSV writes the converged chip-layer field as
// x_mm,y_mm,temp_C rows.
func (s SimResult) WriteFieldCSV(w io.Writer) error {
	if s.field == nil {
		return fmt.Errorf("chiplet25d: no thermal field available")
	}
	return s.field.WriteFieldCSV(w)
}

// PeakTemperature runs the full leakage-coupled thermal simulation of a
// benchmark on a placement: p active cores (MinTemp allocation) at the
// DVFS point matching freqMHz. Pass nil options for the paper defaults.
func PeakTemperature(pl Placement, benchmark string, freqMHz float64, p int, opts *SimOptions) (SimResult, error) {
	b, err := perf.ByName(benchmark)
	if err != nil {
		return SimResult{}, err
	}
	op, err := OperatingPoint(freqMHz)
	if err != nil {
		return SimResult{}, err
	}
	tc := thermal.DefaultConfig()
	if opts != nil && opts.GridN > 0 {
		tc.Nx, tc.Ny = opts.GridN, opts.GridN
	}
	stack, err := floorplan.BuildStack(pl)
	if err != nil {
		return SimResult{}, err
	}
	model, err := thermal.NewModel(stack, tc)
	if err != nil {
		return SimResult{}, err
	}
	cores, err := pl.Cores()
	if err != nil {
		return SimResult{}, err
	}
	active, err := power.MintempActive(p)
	if err != nil {
		return SimResult{}, err
	}
	mesh, err := noc.MeshPower(pl, op, p, b.Traffic, noc.DefaultLinkParams(), noc.DefaultRouterParams())
	if err != nil {
		return SimResult{}, err
	}
	w := power.Workload{
		RefCoreW: b.RefCoreW, Op: op, Active: active,
		NoCW: mesh.TotalW(), Leakage: power.DefaultLeakage(),
	}
	res, err := power.Simulate(model, cores, w, power.DefaultSimOptions())
	if err != nil {
		return SimResult{}, err
	}
	return SimResult{
		PeakC:       res.PeakC,
		TotalPowerW: res.TotalPowerW,
		MeshPowerW:  mesh.TotalW(),
		field:       res.Thermal,
	}, nil
}

// ParetoFront computes the cost-performance frontier of 2.5D organizations
// for a benchmark under the configured threshold: the non-dominated set of
// organizations sorted by ascending cost (see Organization.NormPerf and
// NormCost for baseline-relative values).
func ParetoFront(benchmark string, mutate func(*OptimizeConfig)) ([]Organization, error) {
	cfg, err := NewOptimizeConfig(benchmark)
	if err != nil {
		return nil, err
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := org.NewSearcher(cfg)
	if err != nil {
		return nil, err
	}
	return s.ParetoFront()
}

// SprintResult describes a computational-sprinting run: how long the
// organization sustained full-throttle operation from the idle state before
// reaching the threshold.
type SprintResult struct {
	// SprintSeconds is the time to the threshold (or MaxSeconds).
	SprintSeconds float64
	// Sustained reports the burst never reached the threshold: the
	// organization can run it at steady state.
	Sustained bool
}

// SprintTime integrates the transient thermal response of a placement
// running a benchmark with all 256 cores at 1 GHz from the idle state, and
// returns the time until the peak reaches thresholdC (bounded by
// maxSeconds). Temperature-dependent leakage is updated each step.
func SprintTime(pl Placement, benchmark string, thresholdC, maxSeconds float64, opts *SimOptions) (SprintResult, error) {
	b, err := perf.ByName(benchmark)
	if err != nil {
		return SprintResult{}, err
	}
	tc := thermal.DefaultConfig()
	if opts != nil && opts.GridN > 0 {
		tc.Nx, tc.Ny = opts.GridN, opts.GridN
	}
	stack, err := floorplan.BuildStack(pl)
	if err != nil {
		return SprintResult{}, err
	}
	model, err := thermal.NewModel(stack, tc)
	if err != nil {
		return SprintResult{}, err
	}
	cores, err := pl.Cores()
	if err != nil {
		return SprintResult{}, err
	}
	mesh, err := noc.MeshPower(pl, power.NominalPoint, floorplan.NumCores, b.Traffic,
		noc.DefaultLinkParams(), noc.DefaultRouterParams())
	if err != nil {
		return SprintResult{}, err
	}
	seconds, sustained, err := power.Sprint(model, cores, b.RefCoreW, mesh.TotalW()/floorplan.NumCores,
		thresholdC, maxSeconds, 0.25)
	if err != nil {
		return SprintResult{}, err
	}
	return SprintResult{SprintSeconds: seconds, Sustained: sustained}, nil
}

// OperatingPoint returns the Table II DVFS point for a frequency in MHz.
func OperatingPoint(freqMHz float64) (DVFSPoint, error) {
	for _, op := range power.FrequencySet {
		if op.FreqMHz == freqMHz {
			return op, nil
		}
	}
	return DVFSPoint{}, fmt.Errorf("chiplet25d: frequency %g MHz not in the DVFS table %v",
		freqMHz, power.FrequencySet)
}

// FrequenciesMHz lists the Table II frequencies.
func FrequenciesMHz() []float64 {
	out := make([]float64, len(power.FrequencySet))
	for i, op := range power.FrequencySet {
		out[i] = op.FreqMHz
	}
	return out
}

// ActiveCoreCounts lists the paper's active core count set.
func ActiveCoreCounts() []int {
	return append([]int(nil), power.ActiveCoreCounts...)
}

// SystemCost returns the manufacturing cost (USD) of a placement under the
// Table II cost constants.
func SystemCost(pl Placement) float64 {
	return cost.DefaultParams().PlacementCost(pl)
}

// NormalizedCost returns a placement's cost relative to the 2D baseline.
func NormalizedCost(pl Placement) float64 {
	p := cost.DefaultParams()
	return p.PlacementCost(pl) / p.PlacementCost(floorplan.SingleChip())
}

// PlacementMap renders a placement and its MinTemp allocation of p active
// cores as ASCII art.
func PlacementMap(pl Placement, p int) (string, error) { return expt.PlacementMap(pl, p) }

// RunExperiment regenerates a paper artifact by name (see ExperimentNames)
// and writes its table to w. Scale "full" uses the paper's
// parameterization; anything else runs the reduced version.
func RunExperiment(name string, scale string, w io.Writer) error {
	e, err := expt.ByName(name)
	if err != nil {
		return err
	}
	opts := expt.DefaultOptions()
	if scale == "full" {
		opts.Scale = expt.Full
	}
	tb, err := e.Run(opts)
	if err != nil {
		return err
	}
	return tb.WriteText(w)
}

// ExperimentNames lists the reproducible paper artifacts.
func ExperimentNames() []string {
	var names []string
	for _, e := range expt.Registry() {
		names = append(names, e.Name)
	}
	return names
}
