// Package tsp implements Thermal Safe Power (Pagani et al., CODES+ISSS
// 2014), one of the dark-silicon mitigation techniques the paper cites as
// related work [6]: instead of a single constant TDP, TSP gives a per-core
// power budget as a function of the number of active cores such that the
// chip stays below the temperature threshold. Running each core count at
// its thermally safe power extracts more performance than one conservative
// TDP.
//
// The budget is computed against this library's thermal model by
// bisection on the uniform per-core power under the MinTemp mapping, with
// the temperature-dependent leakage loop active — so TSP composes with the
// paper's 2.5D organizations: a thermally-aware chiplet organization raises
// TSP at every core count, which is exactly the headroom the organizer
// exploits.
package tsp

import (
	"errors"
	"fmt"
	"math"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/power"
	"chiplet25d/internal/thermal"
)

// Budget is the thermally safe power at one active core count.
type Budget struct {
	// ActiveCores is the core count p the budget applies to.
	ActiveCores int
	// PerCoreW is the maximum per-core power (at the leakage reference
	// temperature) keeping the peak below the threshold.
	PerCoreW float64
	// TotalW is p times PerCoreW.
	TotalW float64
	// PeakC is the simulated peak at the budget (≈ the threshold).
	PeakC float64
}

// Options tunes the computation.
type Options struct {
	// ToleranceW is the bisection width on per-core power (default 0.01 W).
	ToleranceW float64
	// MaxPerCoreW caps the search (default 10 W).
	MaxPerCoreW float64
	// Leakage is the leakage model (default power.DefaultLeakage()).
	Leakage power.LeakageModel
	// Sim are the leakage-loop options.
	Sim power.SimOptions
}

// DefaultOptions returns the standard settings.
func DefaultOptions() Options {
	return Options{
		ToleranceW:  0.01,
		MaxPerCoreW: 10,
		Leakage:     power.DefaultLeakage(),
		Sim:         power.DefaultSimOptions(),
	}
}

// SafePower computes the thermally safe per-core power for p active cores
// (MinTemp mapping) on an assembled thermal model.
func SafePower(m *thermal.Model, cores []floorplan.Core, p int, thresholdC float64, opts Options) (Budget, error) {
	if p <= 0 || p > floorplan.NumCores {
		return Budget{}, fmt.Errorf("tsp: active core count %d out of range", p)
	}
	if thresholdC <= m.Config().AmbientC {
		return Budget{}, fmt.Errorf("tsp: threshold %.1f °C at or below ambient", thresholdC)
	}
	if opts.ToleranceW <= 0 {
		opts.ToleranceW = 0.01
	}
	if opts.MaxPerCoreW <= 0 {
		opts.MaxPerCoreW = 10
	}
	active, err := power.MintempActive(p)
	if err != nil {
		return Budget{}, err
	}
	// peakAt reports a thermal runaway as an infinite peak: no threshold
	// is safe at a power the package cannot shed.
	peakAt := func(perCoreW float64) (float64, error) {
		w := power.Workload{
			RefCoreW: perCoreW,
			Op:       power.NominalPoint,
			Active:   active,
			Leakage:  opts.Leakage,
		}
		res, err := power.Simulate(m, cores, w, opts.Sim)
		var runaway *power.RunawayError
		if errors.As(err, &runaway) {
			return math.Inf(1), nil
		}
		if err != nil {
			return 0, err
		}
		return res.PeakC, nil
	}
	lo, hi := 0.0, opts.MaxPerCoreW
	peakHi, err := peakAt(hi)
	if err != nil {
		return Budget{}, err
	}
	if peakHi <= thresholdC {
		return Budget{ActiveCores: p, PerCoreW: hi, TotalW: hi * float64(p), PeakC: peakHi}, nil
	}
	peak := m.Config().AmbientC
	for hi-lo > opts.ToleranceW {
		mid := (lo + hi) / 2
		pm, err := peakAt(mid)
		if err != nil {
			return Budget{}, err
		}
		if pm <= thresholdC {
			lo, peak = mid, pm
		} else {
			hi = mid
		}
	}
	return Budget{ActiveCores: p, PerCoreW: lo, TotalW: lo * float64(p), PeakC: peak}, nil
}

// Curve computes the TSP curve over the paper's active-core-count set.
func Curve(m *thermal.Model, cores []floorplan.Core, thresholdC float64, opts Options) ([]Budget, error) {
	out := make([]Budget, 0, len(power.ActiveCoreCounts))
	for _, p := range power.ActiveCoreCounts {
		b, err := SafePower(m, cores, p, thresholdC, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
