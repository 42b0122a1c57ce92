package thermal

// Vector kernels for the bandwidth-bound stages of the CG solve: CSR SpMV,
// dot products, and the axpy-style vector updates. They run serially on
// the calling goroutine; parallelism lives one level up, in chipletd's
// request pool and the organizer's restart fan-out (DESIGN.md "Worker
// budget").
//
// Summation order: every reduction accumulates one partial sum per stripe
// of kernelStripeRows rows, in ascending row order, and reduceParts folds
// the partials with a fixed pairwise halving tree. A plain left-to-right
// sum would round differently; the stripes and the tree fix the summation
// order that the committed goldens and the cache entries were recorded
// with.

// kernelStripeRows is the stripe granularity of the partial sums.
const kernelStripeRows = 1024

// numStripes returns the stripe count for an n-row vector.
func numStripes(n int) int {
	return (n + kernelStripeRows - 1) / kernelStripeRows
}

// stripeBounds returns the [lo, hi) row range of stripe s.
func stripeBounds(s, n int) (int, int) {
	lo := s * kernelStripeRows
	hi := lo + kernelStripeRows
	if hi > n {
		hi = n
	}
	return lo, hi
}

// reduceParts folds per-stripe partial sums with a pairwise halving tree —
// a fixed reduction order for a given stripe count. It consumes parts.
func reduceParts(parts []float64) float64 {
	n := len(parts)
	if n == 0 {
		return 0
	}
	for n > 1 {
		half := (n + 1) / 2
		for i := 0; i+half < n; i++ {
			parts[i] += parts[i+half]
		}
		n = half
	}
	return parts[0]
}

// spmvStriped computes y = A·x for A = diag(diag) + mat. When w is non-nil
// it also accumulates parts[s] = Σ w[i]·y[i] over each stripe's rows,
// fusing the dot product CG needs right after the SpMV (pᵀ·A·p) into the
// same memory pass.
func spmvStriped(diag []float64, mat *csrMatrix, y, x, w, parts []float64) {
	n := len(y)
	rowPtr, colIdx, vals := mat.rowPtr, mat.colIdx, mat.vals
	if w == nil {
		for i := 0; i < n; i++ {
			s := diag[i] * x[i]
			end := rowPtr[i+1]
			for idx := rowPtr[i]; idx < end; idx++ {
				s += vals[idx] * x[colIdx[idx]]
			}
			y[i] = s
		}
		return
	}
	for st := range numStripes(n) {
		lo, hi := stripeBounds(st, n)
		acc := 0.0
		for i := lo; i < hi; i++ {
			s := diag[i] * x[i]
			end := rowPtr[i+1]
			for idx := rowPtr[i]; idx < end; idx++ {
				s += vals[idx] * x[colIdx[idx]]
			}
			y[i] = s
			acc += w[i] * s
		}
		parts[st] = acc
	}
}

// residualStriped computes r = b - ap and parts[s] = Σ b[i]² per stripe.
func residualStriped(r, b, ap, parts []float64) {
	n := len(r)
	for st := range numStripes(n) {
		lo, hi := stripeBounds(st, n)
		acc := 0.0
		for i := lo; i < hi; i++ {
			r[i] = b[i] - ap[i]
			acc += b[i] * b[i]
		}
		parts[st] = acc
	}
}

// updateStriped applies the fused CG step x += α·p, r -= α·ap and
// accumulates parts[s] = Σ r[i]² in the same pass.
func updateStriped(alpha float64, x, p, r, ap, parts []float64) {
	n := len(x)
	for st := range numStripes(n) {
		lo, hi := stripeBounds(st, n)
		acc := 0.0
		for i := lo; i < hi; i++ {
			x[i] += alpha * p[i]
			ri := r[i] - alpha*ap[i]
			r[i] = ri
			acc += ri * ri
		}
		parts[st] = acc
	}
}

// dotStriped accumulates parts[s] = Σ a[i]·b[i] per stripe.
func dotStriped(a, b, parts []float64) {
	n := len(a)
	for st := range numStripes(n) {
		lo, hi := stripeBounds(st, n)
		acc := 0.0
		for i := lo; i < hi; i++ {
			acc += a[i] * b[i]
		}
		parts[st] = acc
	}
}

// combine computes the CG direction update p = z + β·p.
func combine(beta float64, p, z []float64) {
	for i := range p {
		p[i] = z[i] + beta*p[i]
	}
}
