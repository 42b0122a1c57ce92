package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs, 0 for none.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) returns (its default "exclusive" method),
// so spreads computed here match spreads computed from the printed values.
// It needs at least two values.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	n := len(s)
	var q [3]float64
	if n < 2 {
		for i := range q {
			q[i] = median(s)
		}
		return q
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the distance between the first and third quartiles as a share
// of the median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return math.Abs(q[2]-q[0]) / math.Abs(q[1])
}

// tail returns the highest whole percentile, at most p90, that has at least
// ten samples above it, with its nearest-rank value. ok is false when that
// percentile would lie below the median: the sample is too small for a tail.
func tail(xs []float64) (pct int, v float64, ok bool) {
	n := len(xs)
	if n < 20 {
		return 0, 0, false
	}
	pct = min(90, 100*(n-10)/n)
	rank := (pct*n + 99) / 100 // ceil(pct·n/100) <= n-10
	return pct, sorted(xs)[rank-1], true
}
