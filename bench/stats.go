package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for an
// even count), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank returns the nearest-rank position (1-based) of the q-quantile among n
// sorted samples: the smallest rank with at least q*n samples at or below it.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9)) // 0.95*20 must be 19, not 19.000000000000004
	return min(max(r, 1), n)
}

// percentile returns the exact nearest-rank q-quantile (0 < q <= 1) of samples
// already sorted ascending. No interpolation, no buckets.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(q, len(sorted))-1]
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cv returns the coefficient of variation (population standard deviation over
// mean) of xs.
func cv(xs []float64) float64 {
	m := mean(xs)
	if m == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs))) / m
}

// spread returns (max-min)/median of xs.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if m := median(xs); m != 0 {
		return (hi - lo) / m
	}
	return 0
}

// normRate scales a rate measured while refLoop took refMS to the nominal
// machine speed: a machine running slow (large refMS) did less than it would
// have at nominal speed.
func normRate(rate, refMS float64) float64 { return rate * refMS / RefNominalMS }

// normDur scales a duration measured while refLoop took refMS to the nominal
// machine speed.
func normDur(dur, refMS float64) float64 { return dur * RefNominalMS / refMS }

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
