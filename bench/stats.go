package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted xs by linear
// interpolation between order statistics, the method of numpy's default and
// of Python's statistics.quantiles(method="inclusive"). Empty input gives 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// geomean returns the geometric mean of the positive entries of xs; zero or
// negative entries are skipped (a key with no samples must not zero the
// row), and no positive entry at all gives 0.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// perKeyGeomean takes each key's q-quantile and averages the keys with the
// geometric mean. Ops of different keys differ in cost by two orders of
// magnitude, so a pooled percentile would report whichever key sits at that
// rank; this weighs every key's relative change equally.
func perKeyGeomean(perKey [][]float64, q float64) float64 {
	qs := make([]float64, len(perKey))
	for i, xs := range perKey {
		qs[i] = quantile(sortedCopy(xs), q)
	}
	return geomean(qs)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
