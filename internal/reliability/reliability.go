// Package reliability quantifies the lifetime benefit of running cooler,
// backing the paper's observation that even when 2.5D integration brings no
// performance gain (lu.cont), the thermally-aware organization "can still
// provide lower operating temperature, which improves transistor lifetime
// and reliability."
//
// The model is the standard Arrhenius acceleration used for
// temperature-driven wear-out mechanisms (electromigration per Black's
// equation, TDDB, NBTI to first order): mean time to failure scales as
// exp(Ea / (k·T)), so the lifetime ratio between two operating temperatures
// T_hot and T_cool (in kelvin) is exp(Ea/k · (1/T_cool − 1/T_hot)).
package reliability

import (
	"fmt"
	"math"
)

const (
	// BoltzmannEV is Boltzmann's constant in eV/K.
	BoltzmannEV = 8.617333262e-5
	// DefaultActivationEV is a typical electromigration activation energy.
	DefaultActivationEV = 0.7
)

// Model parameterizes the Arrhenius lifetime model.
type Model struct {
	// ActivationEV is the activation energy Ea in electron-volts.
	ActivationEV float64
}

// DefaultModel returns the 0.7 eV electromigration model.
func DefaultModel() Model { return Model{ActivationEV: DefaultActivationEV} }

// Validate checks the model.
func (m Model) Validate() error {
	if m.ActivationEV <= 0 || m.ActivationEV > 3 {
		return fmt.Errorf("reliability: activation energy %g eV implausible", m.ActivationEV)
	}
	return nil
}

// AccelerationFactor returns how much faster wear-out proceeds at tHotC
// than at tRefC (both °C). Values above 1 mean the hot part ages faster.
// It is also the lifetime ratio MTTF(tRefC) / MTTF(tHotC).
func (m Model) AccelerationFactor(tRefC, tHotC float64) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	tRef := tRefC + 273.15
	tHot := tHotC + 273.15
	if tRef <= 0 || tHot <= 0 {
		return 0, fmt.Errorf("reliability: temperatures below absolute zero")
	}
	return math.Exp(m.ActivationEV / BoltzmannEV * (1/tRef - 1/tHot)), nil
}

// WeightedLifetimeRatio aggregates per-core temperatures: wear-out is
// dominated by the hottest structures, so the ratio uses a soft-max of the
// fields (log-sum-exp of the per-core acceleration relative to the
// reference temperature), which reduces to the peak-temperature ratio when
// one core dominates and to the mean when the field is uniform.
func (m Model) WeightedLifetimeRatio(coolTempsC, hotTempsC []float64, refC float64) (float64, error) {
	accCool, err := m.meanAcceleration(coolTempsC, refC)
	if err != nil {
		return 0, err
	}
	accHot, err := m.meanAcceleration(hotTempsC, refC)
	if err != nil {
		return 0, err
	}
	if accCool <= 0 {
		return 0, fmt.Errorf("reliability: degenerate acceleration")
	}
	return accHot / accCool, nil
}

func (m Model) meanAcceleration(tempsC []float64, refC float64) (float64, error) {
	if len(tempsC) == 0 {
		return 0, fmt.Errorf("reliability: empty temperature field")
	}
	sum := 0.0
	for _, t := range tempsC {
		af, err := m.AccelerationFactor(refC, t)
		if err != nil {
			return 0, err
		}
		sum += af
	}
	return sum / float64(len(tempsC)), nil
}
