// Package surrogate implements the spatial compact thermal model behind
// the organizer's lowest fidelity tier: the per-chiplet peak-temperature
// vector of a 2.5D system predicted as a superposition of analytic
// four-term heat-spread kernels (the closed-form corner integral of a
// rectangular source diffusing through an effective medium, as used by
// analytic thermal placers), with per-chiplet amplitude and spread-length
// parameters plus a uniform background-rise coefficient, fitted by least
// squares against a small design-of-experiments set of real CG solves.
//
// The parameterization is deliberately minimal. The corner integral
// F(a, b, c) is homogeneous of degree one, so a global spread length is
// indistinguishable from the amplitude; what actually varies across a
// floorplan is how strongly each chiplet's heat localizes (frame vs inner
// positions see different spreader boundary conditions). Hence one spread
// length and one amplitude per chiplet slot, shared across all samples of
// a chiplet-count class, and a single bias absorbing the far-field
// heat-sink rise. A fit is a deterministic grid-initialized coordinate
// descent with a closed-form ridge-regularized linear solve for the
// amplitudes, a prediction is a dot product against a cached kernel matrix
// (zero allocations), and the whole calibration is summarized by one
// Calibration record whose WorstCaseErrC drives conservative escalation to
// higher fidelity tiers.
package surrogate

import (
	"fmt"
	"math"
)

// Params are the fitted kernel parameters of one chiplet-count class.
// Lengths are in millimeters on the interposer plane; amplitudes and the
// bias convert watts into degrees Celsius of rise over ambient.
type Params struct {
	// SpreadMM is the per-chiplet spread length: the depth argument of the
	// analytic kernel for heat sourced in that chiplet slot. Small values
	// concentrate the rise over the source, large values flatten it.
	SpreadMM []float64 `json:"spread_mm"`
	// AmpCPerW is the per-chiplet kernel amplitude.
	AmpCPerW []float64 `json:"amp_c_per_w"`
	// BiasCPerW is the uniform rise per total injected watt — the
	// far-field/heat-sink term the localized kernels cannot express.
	BiasCPerW float64 `json:"bias_c_per_w"`
}

// Chiplets returns the chiplet-count class the parameters describe.
func (p Params) Chiplets() int { return len(p.SpreadMM) }

// Sample is one design-of-experiments observation: a floorplan's chiplet
// centers and footprint, the converged per-chiplet powers of a real
// leakage-coupled simulation, and the observed per-chiplet peak rises over
// ambient.
type Sample struct {
	// CentersMM holds the chiplet center coordinates.
	CentersMM [][2]float64
	// ChipWMM, ChipHMM are the (uniform) chiplet footprint dimensions.
	ChipWMM, ChipHMM float64
	// PowersW is the converged total power injected in each chiplet.
	PowersW []float64
	// RiseC is the observed per-chiplet peak temperature rise over ambient.
	RiseC []float64
}

// Calibration records one fitted class: the parameters, how much data
// produced them, and the error statistics that bound how far a prediction
// may be trusted.
type Calibration struct {
	Params Params `json:"params"`
	// Samples is the number of DoE solves in the training partition;
	// HoldoutSamples were withheld from the fit and only scored.
	Samples        int `json:"samples"`
	HoldoutSamples int `json:"holdout_samples"`
	// Rows is the number of per-chiplet observations the fit minimized over.
	Rows int `json:"rows"`
	// RMSFitErrC and WorstFitErrC summarize the training residual.
	RMSFitErrC   float64 `json:"rms_fit_err_c"`
	WorstFitErrC float64 `json:"worst_fit_err_c"`
	// WorstHoldoutErrC is the largest error on the withheld solves (zero
	// when nothing was withheld).
	WorstHoldoutErrC float64 `json:"worst_holdout_err_c"`
	// WorstCaseErrC is the safety-inflated bound used for escalation: a
	// prediction within WorstCaseErrC of a decision threshold must defer
	// to a higher fidelity tier.
	WorstCaseErrC float64 `json:"worst_case_err_c"`
}

// Safety inflation applied to the observed worst error when deriving
// WorstCaseErrC: the DoE set is small, so the escalation bound must assume
// unseen points are somewhat worse than the worst seen one.
const (
	SafetyFactor = 1.5
	SafetyPadC   = 0.25
)

const twoOverSqrtPi = 2 / math.SqrtPi

// fterm is the closed-form corner integral F(a, b, c) of the analytic
// heat-spread kernel. For a > 0 every logarithm argument is strictly
// positive (the square roots dominate |b| and |c|), so the function is
// finite for all b, c.
func fterm(a, b, c float64) float64 {
	d := math.Sqrt(a*a + b*b + c*c)
	return twoOverSqrtPi * (b*math.Log((c+d)/math.Sqrt(a*a+b*b)) +
		c*math.Log((b+d)/math.Sqrt(a*a+c*c)) -
		a*math.Atan(b*c/(a*d)))
}

// KernelSum evaluates the four-term kernel of a wMM x hMM rectangular
// source with spread length spreadMM at a field point offset
// (dxMM, dyMM) from the source center: the rectangle decomposes into four
// corner integrals with sign-split edge distances, so the same closed form
// covers points inside and outside the footprint.
func KernelSum(spreadMM, dxMM, dyMM, wMM, hMM float64) float64 {
	w2, h2 := wMM/2, hMM/2
	s := 0.0
	for _, sx := range [2]float64{1, -1} {
		for _, sy := range [2]float64{1, -1} {
			s += fterm(spreadMM, w2-sx*dxMM, h2-sy*dyMM)
		}
	}
	return s
}

// KernelMatrix fills dst with the n x n source-to-target kernel table for
// one floorplan: dst[j*n+i] is the kernel of source chiplet i (with its
// spread length) at the center of target chiplet j. dst must have length
// n*n (it is returned for convenience); no allocations are performed.
func (p Params) KernelMatrix(centersMM [][2]float64, wMM, hMM float64, dst []float64) []float64 {
	n := len(centersMM)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			dx := centersMM[j][0] - centersMM[i][0]
			dy := centersMM[j][1] - centersMM[i][1]
			dst[j*n+i] = KernelSum(p.SpreadMM[i], dx, dy, wMM, hMM)
		}
	}
	return dst
}

// PredictRise fills riseC with the predicted per-chiplet peak rise over
// ambient: riseC[j] = Σ_i A_i P_i K[j*n+i] + Bias * ΣP. k is a
// KernelMatrix for the same floorplan; len(powersW) = len(riseC) = n.
// Zero allocations.
func (p Params) PredictRise(k []float64, powersW, riseC []float64) {
	n := len(powersW)
	total := 0.0
	for i := 0; i < n; i++ {
		total += powersW[i]
	}
	for j := 0; j < n; j++ {
		s := 0.0
		row := k[j*n : j*n+n]
		for i := 0; i < n; i++ {
			s += p.AmpCPerW[i] * powersW[i] * row[i]
		}
		riseC[j] = s + p.BiasCPerW*total
	}
}

// Predict is the allocating convenience form of KernelMatrix+PredictRise
// for tools and tests.
func (p Params) Predict(centersMM [][2]float64, wMM, hMM float64, powersW []float64) []float64 {
	n := len(centersMM)
	k := p.KernelMatrix(centersMM, wMM, hMM, make([]float64, n*n))
	rise := make([]float64, n)
	p.PredictRise(k, powersW, rise)
	return rise
}

// spreadGridMM is the candidate grid for the spread lengths, spanning
// thin-die local heating through sink-dominated flat fields, in
// millimeters. Fixed so a fit is a pure function of its samples.
var spreadGridMM = []float64{0.25, 0.5, 1, 2, 3, 4, 6, 9, 13, 18}

// fitSweeps is the number of coordinate-descent passes over the per-chiplet
// spread lengths after each uniform-grid initialization.
const fitSweeps = 2

// Fit calibrates Params against DoE samples: from every uniform-spread
// initialization on the candidate grid, a fixed number of coordinate-
// descent sweeps refines the spread lengths chiplet by chiplet over the
// same grid (the SSE surface over spreads is multimodal, so the descent is
// multi-start), and each candidate is scored with a closed-form
// ridge-regularized linear solve for the amplitudes and bias. The global
// minimum sum-of-squares wins with first-candidate tie-breaking, so the
// result is deterministic.
//
// When holdoutEvery >= 2, every holdoutEvery-th sample is withheld from
// the fit and scored afterwards; WorstCaseErrC inflates the worst observed
// error (training or holdout) by the package safety margin.
func Fit(samples []Sample, holdoutEvery int) (Calibration, error) {
	return fit(samples, holdoutEvery, (*columnTable).solve)
}

// fit is Fit with the descent's candidate scorer as a parameter, so a test
// can drive the same descent with a reference scorer.
func fit(samples []Sample, holdoutEvery int, solve func(*columnTable, []int) float64) (Calibration, error) {
	if len(samples) == 0 {
		return Calibration{}, fmt.Errorf("surrogate: no samples to fit")
	}
	n := len(samples[0].CentersMM)
	for si, s := range samples {
		if len(s.CentersMM) != n || len(s.PowersW) != n || len(s.RiseC) != n || n == 0 {
			return Calibration{}, fmt.Errorf("surrogate: sample %d malformed: %d centers, %d powers, %d rises (class %d)",
				si, len(s.CentersMM), len(s.PowersW), len(s.RiseC), n)
		}
		if s.ChipWMM <= 0 || s.ChipHMM <= 0 {
			return Calibration{}, fmt.Errorf("surrogate: sample %d has non-positive chiplet footprint %gx%g",
				si, s.ChipWMM, s.ChipHMM)
		}
	}
	var train, hold []Sample
	if holdoutEvery >= 2 && len(samples) > 1 {
		for i, s := range samples {
			if (i+1)%holdoutEvery == 0 {
				hold = append(hold, s)
			} else {
				train = append(train, s)
			}
		}
	} else {
		train = samples
	}

	tab := newColumnTable(train)
	// Multi-start coordinate descent over spread-grid indices: every
	// uniform initialization descends independently; the best endpoint
	// wins (ties keep the earliest start, so the result is deterministic).
	best := make([]int, n)
	bestSSE := math.Inf(1)
	idx := make([]int, n)
	for start := range spreadGridMM {
		for i := range idx {
			idx[i] = start
		}
		sse := solve(tab, idx)
		for sweep := 0; sweep < fitSweeps; sweep++ {
			for i := 0; i < n; i++ {
				bi := idx[i]
				for li := range spreadGridMM {
					if li == bi {
						continue
					}
					idx[i] = li
					if s := solve(tab, idx); s < sse {
						sse = s
						bi = li
					}
				}
				idx[i] = bi
			}
		}
		if sse < bestSSE {
			bestSSE = sse
			copy(best, idx)
		}
	}
	spreads := make([]float64, n)
	for i, li := range best {
		spreads[i] = spreadGridMM[li]
	}

	amps, bias, _ := solveAmps(spreads, train)
	fitted := Params{SpreadMM: spreads, AmpCPerW: amps, BiasCPerW: bias}

	cal := Calibration{Params: fitted, Samples: len(train), HoldoutSamples: len(hold)}
	_, cal.RMSFitErrC, cal.WorstFitErrC = score(fitted, train)
	for _, s := range train {
		cal.Rows += len(s.RiseC)
	}
	if len(hold) > 0 {
		_, _, cal.WorstHoldoutErrC = score(fitted, hold)
	}
	cal.WorstCaseErrC = SafetyFactor*math.Max(cal.WorstFitErrC, cal.WorstHoldoutErrC) + SafetyPadC
	return cal, nil
}

// columnTable precomputes, for every training sample, the kernel column of
// every (source chiplet, candidate spread) pair, and the Gram table of all
// those candidate columns plus the bias column, so each descent candidate
// gathers its normal equations by indexing instead of re-accumulating
// them over every sample row.
type columnTable struct {
	n   int
	dim int
	ss  []tabSample
	// nc = len(spreadGridMM)·n + 1 candidate columns: column li·n+i is
	// source i's power times its kernel at spread spreadGridMM[li], and
	// column nc−1 is the total power (the bias regressor).
	nc int
	// gram[c·nc+d] = Σ x_c·x_d and gy[c] = Σ x_c·y over every (sample,
	// target) row in assembly order, each entry the same sequence of
	// float additions the per-candidate assembly performed, so a gathered
	// system is bit-identical to an assembled one.
	gram []float64
	gy   []float64
	cidx []int
	ata  []float64
	aty  []float64
}

type tabSample struct {
	// cols[(li*n+i)*n+j] is the kernel of source i with spread
	// spreadGridMM[li] at target j.
	cols   []float64
	powers []float64
	rise   []float64
	total  float64
}

func newColumnTable(train []Sample) *columnTable {
	n := len(train[0].CentersMM)
	nl := len(spreadGridMM)
	t := &columnTable{n: n, dim: n + 1, nc: nl*n + 1}
	t.ata = make([]float64, t.dim*t.dim)
	t.aty = make([]float64, t.dim)
	t.cidx = make([]int, t.dim)
	t.gram = make([]float64, t.nc*t.nc)
	t.gy = make([]float64, t.nc)
	x := make([]float64, t.nc)
	for _, s := range train {
		ts := tabSample{powers: s.PowersW, rise: s.RiseC, cols: make([]float64, nl*n*n)}
		for _, w := range s.PowersW {
			ts.total += w
		}
		for li, l := range spreadGridMM {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					dx := s.CentersMM[j][0] - s.CentersMM[i][0]
					dy := s.CentersMM[j][1] - s.CentersMM[i][1]
					ts.cols[(li*n+i)*n+j] = KernelSum(l, dx, dy, s.ChipWMM, s.ChipHMM)
				}
			}
		}
		for j := 0; j < n; j++ {
			for c := 0; c < t.nc-1; c++ {
				x[c] = ts.powers[c%n] * ts.cols[c*n+j]
			}
			x[t.nc-1] = ts.total
			y := ts.rise[j]
			for c := 0; c < t.nc; c++ {
				xc := x[c]
				row := t.gram[c*t.nc:]
				for d := c; d < t.nc; d++ {
					row[d] += xc * x[d]
				}
				t.gy[c] += xc * y
			}
		}
		t.ss = append(t.ss, ts)
	}
	// Products commute bit-for-bit, so the mirrored half is exact.
	for c := 0; c < t.nc; c++ {
		for d := 0; d < c; d++ {
			t.gram[c*t.nc+d] = t.gram[d*t.nc+c]
		}
	}
	return t
}

// solve fits amplitudes and bias for one spread-index assignment (via the
// same ridge normal equations as solveAmps) and returns the training SSE.
func (t *columnTable) solve(idx []int) float64 {
	n, dim := t.n, t.dim
	for i := 0; i < n; i++ {
		t.cidx[i] = idx[i]*n + i
	}
	t.cidx[n] = t.nc - 1
	for a := 0; a < dim; a++ {
		row := t.gram[t.cidx[a]*t.nc:]
		for b := a; b < dim; b++ {
			t.ata[a*dim+b] = row[t.cidx[b]]
		}
		t.aty[a] = t.gy[t.cidx[a]]
	}
	return t.sse(solveRidge(t.ata, t.aty, dim), idx)
}

// sse is the training sum of squared errors of amplitudes and bias w at
// one spread-index assignment.
func (t *columnTable) sse(w []float64, idx []int) float64 {
	n := t.n
	sse := 0.0
	for si := range t.ss {
		s := &t.ss[si]
		for j := 0; j < n; j++ {
			pred := w[n] * s.total
			for i := 0; i < n; i++ {
				pred += w[i] * s.powers[i] * s.cols[(idx[i]*n+i)*n+j]
			}
			e := pred - s.rise[j]
			sse += e * e
		}
	}
	return sse
}

// solveAmps solves the ridge-regularized normal equations for the
// amplitudes and bias at fixed spread lengths: each per-chiplet
// observation contributes a row rise = Σ_i A_i·(P_i·K_ij) + B·ΣP. The
// tiny relative ridge keeps exactly collinear systems (a single-chiplet
// class, or a chiplet slot idle in every sample) deterministic and finite
// without perturbing well-conditioned fits.
func solveAmps(spreadsMM []float64, samples []Sample) (amps []float64, bias, sse float64) {
	n := len(spreadsMM)
	dim := n + 1
	ata := make([]float64, dim*dim)
	aty := make([]float64, dim)
	x := make([]float64, dim)
	p := Params{SpreadMM: spreadsMM}
	k := make([]float64, n*n)
	for _, s := range samples {
		p.KernelMatrix(s.CentersMM, s.ChipWMM, s.ChipHMM, k)
		t := 0.0
		for _, w := range s.PowersW {
			t += w
		}
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				x[i] = s.PowersW[i] * k[j*n+i]
			}
			x[n] = t
			y := s.RiseC[j]
			for a := 0; a < dim; a++ {
				for b := a; b < dim; b++ {
					ata[a*dim+b] += x[a] * x[b]
				}
				aty[a] += x[a] * y
			}
		}
	}
	w := solveRidge(ata, aty, dim)
	amps = w[:n]
	bias = w[n]
	sse, _, _ = score(Params{SpreadMM: spreadsMM, AmpCPerW: amps, BiasCPerW: bias}, samples)
	return amps, bias, sse
}

// solveRidge mirrors an upper-triangle-assembled normal matrix, adds the
// relative ridge (1e-8 of the mean diagonal — enough to keep exactly
// collinear systems determinate and finite, far too small to perturb a
// well-conditioned fit), and solves in place (ata is destroyed, the
// solution is returned in aty's storage). Both fit paths share it so their
// results are bit-identical.
func solveRidge(ata, aty []float64, dim int) []float64 {
	trace := 0.0
	for a := 0; a < dim; a++ {
		for b := 0; b < a; b++ {
			ata[a*dim+b] = ata[b*dim+a]
		}
		trace += ata[a*dim+a]
	}
	ridge := 1e-8 * trace / float64(dim)
	if ridge <= 0 {
		ridge = 1e-12
	}
	for a := 0; a < dim; a++ {
		ata[a*dim+a] += ridge
	}
	return solveSPD(ata, aty, dim)
}

// solveSPD solves the dim x dim symmetric positive-definite system a·x = b
// by Gaussian elimination with partial pivoting (the ridge guarantees
// definiteness; pivoting adds robustness at negligible cost for dim <= 17).
// It works in place: a is destroyed and x is returned in b's storage.
func solveSPD(m, x []float64, dim int) []float64 {
	for col := 0; col < dim; col++ {
		piv := col
		for r := col + 1; r < dim; r++ {
			if math.Abs(m[r*dim+col]) > math.Abs(m[piv*dim+col]) {
				piv = r
			}
		}
		if piv != col {
			for c := 0; c < dim; c++ {
				m[col*dim+c], m[piv*dim+c] = m[piv*dim+c], m[col*dim+c]
			}
			x[col], x[piv] = x[piv], x[col]
		}
		d := m[col*dim+col]
		if d == 0 {
			continue // ridge makes this unreachable; keep the solve total
		}
		for r := col + 1; r < dim; r++ {
			f := m[r*dim+col] / d
			if f == 0 {
				continue
			}
			for c := col; c < dim; c++ {
				m[r*dim+c] -= f * m[col*dim+c]
			}
			x[r] -= f * x[col]
		}
	}
	for col := dim - 1; col >= 0; col-- {
		s := x[col]
		for c := col + 1; c < dim; c++ {
			s -= m[col*dim+c] * x[c]
		}
		if d := m[col*dim+col]; d != 0 {
			x[col] = s / d
		} else {
			x[col] = 0
		}
	}
	return x
}

// score evaluates parameters over samples: the sum of squared errors, the
// RMS error, and the worst absolute error across every per-chiplet row.
func score(p Params, samples []Sample) (sse, rms, worst float64) {
	rows := 0
	for _, s := range samples {
		n := len(s.CentersMM)
		pred := p.Predict(s.CentersMM, s.ChipWMM, s.ChipHMM, s.PowersW)
		for j := 0; j < n; j++ {
			e := pred[j] - s.RiseC[j]
			sse += e * e
			if a := math.Abs(e); a > worst {
				worst = a
			}
			rows++
		}
	}
	if rows > 0 {
		rms = math.Sqrt(sse / float64(rows))
	}
	return sse, rms, worst
}
