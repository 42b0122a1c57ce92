package expt

import (
	"fmt"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/noc"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/power"
	"chiplet25d/internal/thermal"
)

// Sprint studies computational sprinting (a related-work alternative the
// paper cites [7]) on top of the transient thermal solver: starting from
// the idle (ambient) state, all 256 cores run at 1 GHz — a power level far
// above the single chip's sustainable envelope — and we measure how long
// each organization lasts before hitting the 85 °C threshold. Thermally
// spread 2.5D organizations both extend the sprint and, for large enough
// interposers, sustain it indefinitely, which is precisely the "reclaimed
// dark silicon" of the steady-state analysis.
func Sprint(o Options) (*Table, error) {
	benches, err := o.benchSet("shock")
	if err != nil {
		return nil, err
	}
	type variant struct {
		name string
		pl   floorplan.Placement
	}
	single := floorplan.SingleChip()
	variants := []variant{{"single-chip", single}}
	for _, spec := range []struct {
		r  int
		sp float64
	}{{2, 4}, {4, 4}, {4, 8}} {
		pl, err := floorplan.UniformGrid(spec.r, spec.sp)
		if err != nil {
			return nil, err
		}
		variants = append(variants, variant{
			fmt.Sprintf("%d-chiplet@%gmm", spec.r*spec.r, spec.sp), pl})
	}
	const (
		thresholdC = 85.0
		maxSprintS = 60.0
		dtS        = 0.25
	)
	tc := o.thermalConfig()
	t := &Table{
		Title:   "Computational sprinting: time from idle to 85 °C, all 256 cores at 1 GHz",
		Columns: []string{"benchmark", "organization", "sprint_s", "sustainable", "steady_peak_C"},
	}
	for _, b := range benches {
		for _, v := range variants {
			sprintS, sustained, steadyPeak, err := sprintTime(v.pl, tc, b, thresholdC, maxSprintS, dtS)
			if err != nil {
				return nil, err
			}
			sprint := fmt.Sprintf("%.1f", sprintS)
			if sustained {
				sprint = ">" + fmt.Sprintf("%.0f", maxSprintS)
			}
			t.AddRow(b.Name, v.name, sprint, fmt.Sprintf("%v", sustained), f1(steadyPeak))
		}
	}
	t.Notes = append(t.Notes,
		"sprinting (Raghavan et al. [7]) tolerates short over-envelope bursts; thermally-aware 2.5D organization turns the burst into steady state",
		"transient integration: backward Euler with temperature-dependent leakage updated each step")
	return t, nil
}

// sprintTime integrates the transient field under full-throttle benchmark
// power (leakage updated from core temperatures each step) until the
// threshold or maxTime; it also reports the steady-state peak.
func sprintTime(pl floorplan.Placement, tc thermal.Config, b perf.Benchmark,
	thresholdC, maxTime, dt float64) (sprintS float64, sustained bool, steadyPeakC float64, err error) {
	stack, err := floorplan.BuildStack(pl)
	if err != nil {
		return 0, false, 0, err
	}
	model, err := thermal.NewModel(stack, tc)
	if err != nil {
		return 0, false, 0, err
	}
	cores, err := pl.Cores()
	if err != nil {
		return 0, false, 0, err
	}
	mesh, err := noc.MeshPower(pl, power.NominalPoint, floorplan.NumCores, b.Traffic,
		noc.DefaultLinkParams(), noc.DefaultRouterParams())
	if err != nil {
		return 0, false, 0, err
	}
	// Steady state for the "sustainable" verdict.
	active, err := power.MintempActive(floorplan.NumCores)
	if err != nil {
		return 0, false, 0, err
	}
	w := power.Workload{RefCoreW: b.RefCoreW, Op: power.NominalPoint,
		Active: active, NoCW: mesh.TotalW(), Leakage: power.DefaultLeakage()}
	steady, err := power.Simulate(model, cores, w, power.DefaultSimOptions())
	if err != nil {
		return 0, false, 0, err
	}
	sprintS, sustained, err = power.Sprint(model, cores, b.RefCoreW, mesh.TotalW()/floorplan.NumCores,
		thresholdC, maxTime, dt)
	if err != nil {
		return 0, false, 0, err
	}
	return sprintS, sustained, steady.PeakC, nil
}
