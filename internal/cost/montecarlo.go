package cost

import (
	"fmt"
	"math"
	"math/rand"
)

// Monte-Carlo validation of the negative-binomial yield model (Eq. (2)).
// The model arises from Poisson defects whose rate is itself
// gamma-distributed across dies (defect clustering): integrating the
// Poisson zero-class over a Gamma(α, D0·A/α) mixing density gives exactly
// (1 + A·D0/α)^(-α). SimulateYield samples that generative process so the
// analytic formula can be cross-checked, and so users can explore
// alternative clustering assumptions empirically.

// SimulateYield estimates the fraction of defect-free dies of the given
// area (mm²) by sampling n dies from the clustered-defect process.
func (p Params) SimulateYield(dieAreaMM2 float64, n int, seed int64) (float64, error) {
	if dieAreaMM2 <= 0 {
		return 0, fmt.Errorf("cost: die area must be positive")
	}
	if n < 1 {
		return 0, fmt.Errorf("cost: need at least one sample")
	}
	rng := rand.New(rand.NewSource(seed))
	mean := dieAreaMM2 * p.D0PerCM2 / 100 // expected defects per die
	good := 0
	for i := 0; i < n; i++ {
		// Gamma(α, mean/α)-distributed local defect rate...
		lambda := gammaSample(rng, p.Alpha) * mean / p.Alpha
		// ...feeding a Poisson defect count; a die is good with zero defects.
		if poissonSample(rng, lambda) == 0 {
			good++
		}
	}
	return float64(good) / float64(n), nil
}

// gammaSample draws from Gamma(shape, 1) via Marsaglia-Tsang.
func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := rng.Float64()
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// poissonSample draws from Poisson(lambda) (Knuth for small rates, normal
// approximation for large ones — die defect counts are small).
func poissonSample(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := rng.NormFloat64()*math.Sqrt(lambda) + lambda
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
