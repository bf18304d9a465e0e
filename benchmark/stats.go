package main

import (
	"math"
	"slices"
	"sort"
)

// quantile returns the q-quantile (0..1) of vs by the nearest-rank
// method. vs must be sorted ascending and non-empty.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(vs []int64) []int64 {
	out := append([]int64(nil), vs...)
	slices.Sort(out)
	return out
}

// median of float64 values; 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vs exactly as
// Python's statistics.quantiles(vs, n=4) (the default "exclusive"
// method) does — the driver computes spreads that way, so -repeat and
// -compare must agree with it. It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i in 1..3
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 || len(vs) < 2 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return math.Abs((q3 - q1) / m)
}
