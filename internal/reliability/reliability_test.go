package reliability

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultModelValidates(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Model{ActivationEV: 0}).Validate(); err == nil {
		t.Errorf("expected error for zero activation energy")
	}
	if err := (Model{ActivationEV: 5}).Validate(); err == nil {
		t.Errorf("expected error for implausible activation energy")
	}
}

func TestAccelerationFactorIdentity(t *testing.T) {
	m := DefaultModel()
	af, err := m.AccelerationFactor(85, 85)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(af-1) > 1e-12 {
		t.Fatalf("equal temperatures must give factor 1, got %v", af)
	}
}

func TestAccelerationFactorKnownValue(t *testing.T) {
	// Classic rule of thumb: with Ea ≈ 0.7 eV, +10 °C near 85 °C roughly
	// halves the lifetime (factor ≈ 1.7-2.0).
	m := DefaultModel()
	af, err := m.AccelerationFactor(85, 95)
	if err != nil {
		t.Fatal(err)
	}
	if af < 1.5 || af > 2.2 {
		t.Fatalf("85->95 °C acceleration %.3f outside the rule-of-thumb band", af)
	}
}

// The lifetime ratio MTTF(cool) / MTTF(hot) is AccelerationFactor(cool, hot)
// and never falls below 1.
func TestLifetimeRatioMonotone(t *testing.T) {
	m := DefaultModel()
	f := func(aRaw, bRaw float64) bool {
		a := 45 + math.Abs(math.Mod(aRaw, 60))
		b := 45 + math.Abs(math.Mod(bRaw, 60))
		if a > b {
			a, b = b, a
		}
		r, err := m.AccelerationFactor(a, b)
		if err != nil {
			return false
		}
		return r >= 1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAccelerationErrors(t *testing.T) {
	m := DefaultModel()
	if _, err := m.AccelerationFactor(-300, 85); err == nil {
		t.Errorf("expected error below absolute zero")
	}
	bad := Model{}
	if _, err := bad.AccelerationFactor(60, 85); err == nil {
		t.Errorf("expected validation error")
	}
}

func TestWeightedLifetimeRatio(t *testing.T) {
	m := DefaultModel()
	cool := []float64{60, 62, 64}
	hot := []float64{80, 82, 84}
	r, err := m.WeightedLifetimeRatio(cool, hot, 60)
	if err != nil {
		t.Fatal(err)
	}
	if r <= 1 {
		t.Fatalf("cooler field must last longer, ratio %v", r)
	}
	// Uniform identical fields: ratio 1.
	same, err := m.WeightedLifetimeRatio(cool, cool, 60)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(same-1) > 1e-12 {
		t.Fatalf("identical fields must give ratio 1, got %v", same)
	}
	if _, err := m.WeightedLifetimeRatio(nil, hot, 60); err == nil {
		t.Errorf("expected error for empty field")
	}
}

// A hotspot dominates: one very hot core should pull the effective
// lifetime down much more than the mean temperature suggests.
func TestHotspotDominates(t *testing.T) {
	m := DefaultModel()
	uniform := []float64{70, 70, 70, 70}
	spiky := []float64{60, 60, 60, 100} // same mean
	rUniform, err := m.WeightedLifetimeRatio(uniform, spiky, 60)
	if err != nil {
		t.Fatal(err)
	}
	if rUniform <= 1 {
		t.Fatalf("spiky field should age faster than uniform field at equal mean: %v", rUniform)
	}
}
