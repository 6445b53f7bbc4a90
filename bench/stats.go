package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or 0 when there are no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest-rank position of the p-th percentile among n
// sorted samples. The small subtraction keeps 99.9% of 10000 at 9990.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// median sorts a copy of values and returns its 50th percentile.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// tailPercentiles are the candidates for "the highest percentile the sample
// supports", highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// beyond counts the samples strictly above the nearest-rank p-th percentile
// position of an n-sample set.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// supportedTail returns the highest candidate percentile with at least ten
// samples beyond it, or 50 when even the lowest candidate has fewer.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}
