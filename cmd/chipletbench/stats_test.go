package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) in Python 3.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{seq(5), [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{1.2, 1.25, 1.1, 1.3, 1.22, 1.21, 1.19, 1.24}, [3]float64{1.1925, 1.215, 1.2475}},
	}
	for _, tc := range cases {
		got := quartiles(tc.xs)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

func TestTail(t *testing.T) {
	cases := []struct {
		n      int
		pct    int
		v      float64
		report bool
	}{
		{19, 0, 0, false}, // the best percentile would be p47: below the median
		{20, 50, 10, true},
		{75, 86, 65, true},
		{100, 90, 90, true},
		{1000, 90, 900, true},
	}
	for _, tc := range cases {
		pct, v, ok := tail(seq(tc.n))
		if ok != tc.report || ok && (pct != tc.pct || v != tc.v) {
			t.Errorf("tail of %d samples = p%d %g %v, want p%d %g %v", tc.n, pct, v, ok, tc.pct, tc.v, tc.report)
		}
	}
	// The reported percentile always has at least ten samples above it,
	// and below p90 the next percentile would not.
	for n := 20; n <= 400; n++ {
		pct, v, _ := tail(seq(n))
		if beyond := n - int(v); beyond < 10 {
			t.Fatalf("n=%d: p%d has %d samples beyond it", n, pct, beyond)
		}
		nextRank := ((pct+1)*n + 99) / 100
		if pct < 90 && n-nextRank >= 10 {
			t.Fatalf("n=%d: p%d is not the highest percentile with 10 samples beyond it", n, pct)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of nothing = %g, want 0", m)
	}
	if s := spread(seq(10)); math.Abs(s-1) > 1e-12 { // (8.25-2.75)/5.5
		t.Errorf("spread = %g, want 1", s)
	}
}
