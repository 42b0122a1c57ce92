package surrogate

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// fourGrid is a 2x2 chiplet layout (9 mm chiplets, 2 mm gaps) used by the
// synthetic fits below.
func fourGrid() ([][2]float64, float64, float64) {
	centers := [][2]float64{
		{5.5, 5.5}, {16.5, 5.5},
		{5.5, 16.5}, {16.5, 16.5},
	}
	return centers, 9, 9
}

// fourTruth is an on-grid ground-truth model with per-chiplet variation.
func fourTruth() Params {
	return Params{
		SpreadMM:  []float64{4, 4, 2, 6},
		AmpCPerW:  []float64{0.09, 0.07, 0.08, 0.075},
		BiasCPerW: 0.05,
	}
}

func TestKernelCenterPositiveAndSymmetric(t *testing.T) {
	c := KernelSum(0.4, 0, 0, 9, 9)
	if !(c > 0) || math.IsNaN(c) || math.IsInf(c, 0) {
		t.Fatalf("center kernel = %g, want finite positive", c)
	}
	for _, off := range [][2]float64{{1.5, 0.25}, {7, 3}, {20, 11}} {
		ref := KernelSum(0.4, off[0], off[1], 9, 9)
		for _, m := range [][2]float64{{-off[0], off[1]}, {off[0], -off[1]}, {-off[0], -off[1]}} {
			got := KernelSum(0.4, m[0], m[1], 9, 9)
			if math.Abs(got-ref) > 1e-9*math.Abs(ref) {
				t.Fatalf("kernel not mirror symmetric at %v vs %v: %g vs %g", off, m, ref, got)
			}
		}
	}
}

func TestKernelDecaysWithDistance(t *testing.T) {
	prev := math.Inf(1)
	for _, d := range []float64{0, 3, 6, 12, 24, 48} {
		v := KernelSum(0.4, d, 0, 9, 9)
		if v < 0 || v >= prev && d > 0 {
			t.Fatalf("kernel at distance %g = %g, want positive and decreasing (prev %g)", d, v, prev)
		}
		prev = v
	}
}

// syntheticSamples draws power vectors and labels them with the ground
// truth model plus optional noise.
func syntheticSamples(truth Params, rng *rand.Rand, count int, noiseC float64) []Sample {
	centers, w, h := fourGrid()
	out := make([]Sample, 0, count)
	for s := 0; s < count; s++ {
		powers := make([]float64, len(centers))
		for i := range powers {
			if rng.Intn(4) == 0 {
				continue // exercise zero-power chiplets
			}
			powers[i] = 5 + 45*rng.Float64()
		}
		rise := truth.Predict(centers, w, h, powers)
		for j := range rise {
			rise[j] += noiseC * (2*rng.Float64() - 1)
		}
		out = append(out, Sample{CentersMM: centers, ChipWMM: w, ChipHMM: h, PowersW: powers, RiseC: rise})
	}
	return out
}

func TestFitRecoversSyntheticModel(t *testing.T) {
	truth := fourTruth()
	rng := rand.New(rand.NewSource(7))
	cal, err := Fit(syntheticSamples(truth, rng, 12, 0), 3)
	if err != nil {
		t.Fatal(err)
	}
	if cal.WorstFitErrC > 1e-4 || cal.WorstHoldoutErrC > 1e-4 {
		t.Fatalf("noise-free fit has errors (%g, %g), want ~0", cal.WorstFitErrC, cal.WorstHoldoutErrC)
	}
	if cal.Samples != 8 || cal.HoldoutSamples != 4 || cal.Rows != 32 {
		t.Fatalf("partition: %d train / %d holdout / %d rows, want 8/4/32",
			cal.Samples, cal.HoldoutSamples, cal.Rows)
	}
	// The fitted model must reproduce the truth on unseen power vectors,
	// whatever internal parameterization the descent settled on.
	centers, w, h := fourGrid()
	for trial := 0; trial < 5; trial++ {
		powers := make([]float64, len(centers))
		for i := range powers {
			powers[i] = 60 * rng.Float64()
		}
		want := truth.Predict(centers, w, h, powers)
		got := cal.Params.Predict(centers, w, h, powers)
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-3 {
				t.Fatalf("trial %d chiplet %d: predicted rise %g, truth %g", trial, j, got[j], want[j])
			}
		}
	}
}

func TestFitDeterministic(t *testing.T) {
	mk := func() []Sample {
		return syntheticSamples(fourTruth(), rand.New(rand.NewSource(11)), 9, 0.3)
	}
	a, err := Fit(mk(), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(mk(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fit not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestFitSingleChiplet(t *testing.T) {
	// One chiplet: the kernel regressor is proportional to total power, so
	// the linear system is collinear and only the ridge keeps it
	// determinate; the fitted model must still predict the (linear)
	// rise-per-watt relation.
	centers := [][2]float64{{10, 10}}
	var samples []Sample
	for _, w := range []float64{10, 20, 40, 80, 160, 240} {
		samples = append(samples, Sample{
			CentersMM: centers, ChipWMM: 18, ChipHMM: 18,
			PowersW: []float64{w}, RiseC: []float64{0.2 * w},
		})
	}
	cal, err := Fit(samples, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := cal.Params
	if len(p.AmpCPerW) != 1 || math.IsNaN(p.AmpCPerW[0]) || math.IsInf(p.AmpCPerW[0], 0) {
		t.Fatalf("single-chiplet fit params %+v, want one finite amplitude", p)
	}
	pred := p.Predict(centers, 18, 18, []float64{100})[0]
	if math.Abs(pred-20) > 1e-3 {
		t.Fatalf("single-chiplet prediction at 100 W = %g °C rise, want 20", pred)
	}
	if cal.WorstCaseErrC < SafetyPadC {
		t.Fatalf("WorstCaseErrC %g below the safety pad %g", cal.WorstCaseErrC, SafetyPadC)
	}
}

func TestZeroPowerChipletStillWarms(t *testing.T) {
	p := fourTruth()
	centers, w, h := fourGrid()
	rise := p.Predict(centers, w, h, []float64{40, 0, 0, 0})
	if !(rise[1] > 0) || !(rise[2] > 0) || !(rise[3] > 0) {
		t.Fatalf("idle chiplets predicted at rises %v, want positive coupling from the hot one", rise)
	}
	if !(rise[0] > rise[3]) {
		t.Fatalf("powered chiplet rise %g not above far idle chiplet %g", rise[0], rise[3])
	}
	all := p.Predict(centers, w, h, []float64{0, 0, 0, 0})
	for j, r := range all {
		if r != 0 {
			t.Fatalf("zero power map predicts nonzero rise %g at chiplet %d", r, j)
		}
	}
}

func TestHeldOutErrorUnderWorstCaseBound(t *testing.T) {
	// Seeded property: for noisy synthetic DoE sets, every held-out
	// observation's error stays under the recorded WorstCaseErrC bound.
	truth := fourTruth()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		samples := syntheticSamples(truth, rng, 12, 0.5)
		cal, err := Fit(samples, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range samples {
			if (i+1)%3 != 0 {
				continue // training sample
			}
			pred := cal.Params.Predict(s.CentersMM, s.ChipWMM, s.ChipHMM, s.PowersW)
			for j := range pred {
				if e := math.Abs(pred[j] - s.RiseC[j]); e > cal.WorstCaseErrC {
					t.Fatalf("seed %d holdout sample %d chiplet %d: error %g exceeds recorded bound %g",
						seed, i, j, e, cal.WorstCaseErrC)
				}
			}
		}
		if cal.WorstCaseErrC < SafetyFactor*cal.WorstHoldoutErrC {
			t.Fatalf("seed %d: bound %g below safety-inflated holdout error", seed, cal.WorstCaseErrC)
		}
	}
}

func TestPredictZeroAlloc(t *testing.T) {
	p := fourTruth()
	centers, w, h := fourGrid()
	n := len(centers)
	k := make([]float64, n*n)
	powers := []float64{30, 0, 12, 45}
	rise := make([]float64, n)
	allocs := testing.AllocsPerRun(100, func() {
		p.KernelMatrix(centers, w, h, k)
		p.PredictRise(k, powers, rise)
	})
	if allocs != 0 {
		t.Fatalf("prediction allocates %.1f objects per run, want 0", allocs)
	}
}

func TestFitRejectsMalformedSamples(t *testing.T) {
	if _, err := Fit(nil, 3); err == nil {
		t.Fatal("empty sample set: want error")
	}
	bad := []Sample{{CentersMM: [][2]float64{{1, 1}}, ChipWMM: 9, ChipHMM: 9, PowersW: []float64{1, 2}, RiseC: []float64{1}}}
	if _, err := Fit(bad, 3); err == nil {
		t.Fatal("mismatched sample lengths: want error")
	}
	neg := []Sample{{CentersMM: [][2]float64{{1, 1}}, ChipWMM: 0, ChipHMM: 9, PowersW: []float64{1}, RiseC: []float64{1}}}
	if _, err := Fit(neg, 3); err == nil {
		t.Fatal("non-positive footprint: want error")
	}
	mixed := []Sample{
		{CentersMM: [][2]float64{{1, 1}}, ChipWMM: 9, ChipHMM: 9, PowersW: []float64{1}, RiseC: []float64{1}},
		{CentersMM: [][2]float64{{1, 1}, {2, 2}}, ChipWMM: 9, ChipHMM: 9, PowersW: []float64{1, 2}, RiseC: []float64{1, 2}},
	}
	if _, err := Fit(mixed, 3); err == nil {
		t.Fatal("mixed chiplet-count classes: want error")
	}
}

// referenceSolve is the per-candidate assembly the Gram table replaced:
// it re-accumulates the normal equations over every sample row.
func referenceSolve(t *columnTable, idx []int) float64 {
	n, dim := t.n, t.dim
	ata := make([]float64, dim*dim)
	aty := make([]float64, dim)
	x := make([]float64, dim)
	for si := range t.ss {
		s := &t.ss[si]
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				x[i] = s.powers[i] * s.cols[(idx[i]*n+i)*n+j]
			}
			x[n] = s.total
			y := s.rise[j]
			for a := 0; a < dim; a++ {
				xa := x[a]
				row := ata[a*dim:]
				for b := a; b < dim; b++ {
					row[b] += xa * x[b]
				}
				aty[a] += xa * y
			}
		}
	}
	return t.sse(solveRidge(ata, aty, dim), idx)
}

// sameBits reports whether two calibrations agree bit-for-bit.
func sameBits(a, b Calibration) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	eqs := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !eq(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	return eqs(a.Params.SpreadMM, b.Params.SpreadMM) && eqs(a.Params.AmpCPerW, b.Params.AmpCPerW) &&
		eq(a.Params.BiasCPerW, b.Params.BiasCPerW) && a.Samples == b.Samples &&
		a.HoldoutSamples == b.HoldoutSamples && a.Rows == b.Rows &&
		eq(a.RMSFitErrC, b.RMSFitErrC) && eq(a.WorstFitErrC, b.WorstFitErrC) &&
		eq(a.WorstHoldoutErrC, b.WorstHoldoutErrC) && eq(a.WorstCaseErrC, b.WorstCaseErrC)
}

// The Gram-table fit gathers each candidate's normal equations from sums
// taken in the reference assembly's row order, so Fit must return the
// reference's calibration bit-for-bit: random layouts of 1 to 16 chiplets,
// zero-power slots, with and without holdout.
func TestGramFitMatchesReferenceAssembly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(16)
		centers := make([][2]float64, n)
		for i := range centers {
			centers[i] = [2]float64{40 * rng.Float64(), 40 * rng.Float64()}
		}
		w, h := 3+6*rng.Float64(), 3+6*rng.Float64()
		samples := make([]Sample, 4+rng.Intn(9))
		for si := range samples {
			powers := make([]float64, n)
			rise := make([]float64, n)
			for i := range powers {
				if rng.Intn(4) != 0 {
					powers[i] = 50 * rng.Float64()
				}
				rise[i] = 60 * rng.Float64()
			}
			samples[si] = Sample{CentersMM: centers, ChipWMM: w, ChipHMM: h, PowersW: powers, RiseC: rise}
		}
		holdout := []int{0, 3}[trial%2]
		got, err := Fit(samples, holdout)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fit(samples, holdout, referenceSolve)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("trial %d (n=%d, %d samples, holdout %d): Gram fit\n  %+v\nreference\n  %+v",
				trial, n, len(samples), holdout, got, want)
		}
	}
}
