package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a tail percentile for it
// to be reported as measured rather than insufficient.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1) and
// whether at least minTail samples lie beyond it. A median always has
// enough; p90 needs at least 100 samples.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	beyond := len(s) - rank
	return s[rank-1], q <= 0.5 || beyond >= minTail
}

// median of xs (the mean of the middle pair for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// rule as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so spreads computed here match ones computed there. It needs
// at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}
