// Package stats holds the few order statistics the harness reports.
package stats

import "sort"

// Median returns the median of xs (the mean of the two middle values
// for an even count) without reordering xs. It returns 0 for no values.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// MeanOfFastest returns the mean of the smallest share of xs (at least
// one value), or 0 for no values.
func MeanOfFastest(xs []float64, share float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := max(int(share*float64(len(s))), 1)
	var sum float64
	for _, x := range s[:n] {
		sum += x
	}
	return sum / float64(n)
}

// MinMax returns the smallest and largest of xs, or zeros for no values.
func MinMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Spread is (max − min) ÷ median, the harness's rep-to-rep steadiness
// figure; 0 when the median is 0.
func Spread(xs []float64) float64 {
	m := Median(xs)
	if m == 0 {
		return 0
	}
	lo, hi := MinMax(xs)
	return (hi - lo) / m
}

// QuantileSorted returns the q-quantile (0 ≤ q ≤ 1) of an ascending
// sample by nearest rank, so the value is always one that was measured.
func QuantileSorted[T int32 | int64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Quartile returns the i-th quartile (1 to 3) of xs as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method): rank
// i(n+1)/4, clamped to 1..n-1, then linear interpolation. It returns
// the only value of a single one and 0 for none.
func Quartile(xs []float64, i int) float64 {
	n := len(xs)
	if n < 2 {
		return Median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	j := i * (n + 1) / 4
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	delta := float64(i*(n+1) - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

// IQRShare is the distance between the first and third quartile as a
// share of the median — the spread the acceptance rule is written in,
// so -agree judges as the driver does.
func IQRShare(xs []float64) float64 {
	m := Median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	d := Quartile(xs, 3) - Quartile(xs, 1)
	if d < 0 {
		d = -d
	}
	if m < 0 {
		m = -m
	}
	return d / m
}
