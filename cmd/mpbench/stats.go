package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics (R type 7, numpy's default), or
// NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match a check made in Python. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	m := n + 1
	cut := func(i int) float64 {
		// Python clamps j into [1, n-1] before computing delta, so small
		// samples extrapolate rather than saturate.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// relSpread is the interquartile distance of xs as a share of its median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// tailIndex returns the index into n sorted samples of the highest
// percentile that still has at least ten samples beyond it, and that
// percentile, for reporting a timing's tail next to its median. ok is false
// when no such percentile lies above the median (fewer than 21 samples).
func tailIndex(n int) (idx int, pct float64, ok bool) {
	const beyond = 10
	idx = n - 1 - beyond
	if n < 2 || 2*idx <= n-1 {
		return 0, 0, false
	}
	return idx, 100 * float64(idx) / float64(n-1), true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
