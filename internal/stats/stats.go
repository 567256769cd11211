// Package stats provides small numeric helpers shared by the VMT
// simulator: summary statistics and deterministic pseudo-random
// deviates for reproducible experiments.
//
// Everything here operates on plain float64 slices. Functions never
// mutate their inputs unless documented otherwise.
package stats

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrEmpty is returned by reducers that are undefined on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Sum returns the sum of xs using Kahan compensation so that long,
// fine-grained simulation series (tens of millions of small energy
// increments) do not accumulate drift.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Min returns the smallest element of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// MaxIndex returns the index of the largest element (first occurrence),
// or -1 for empty input.
func MaxIndex(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// StdDev returns the population standard deviation of xs (0 for fewer
// than two samples).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	default:
		return x
	}
}

// Lerp linearly interpolates between a and b by t in [0,1].
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }

// Duration converts x units (time.Second, time.Minute, ...) to a
// time.Duration, rounded to the nearest nanosecond. NaN, ±Inf and
// values past Duration's ±292-year range are errors naming key: a bare
// time.Duration(x * float64(unit)) conversion of them is
// implementation-defined (a negative duration on amd64).
func Duration(key string, x float64, unit time.Duration) (time.Duration, error) {
	ns := math.Round(x * float64(unit))
	if math.IsNaN(ns) || ns < math.MinInt64 || ns >= math.MaxInt64 {
		return 0, fmt.Errorf("%s: %v is not finite or overflows time.Duration", key, x)
	}
	return time.Duration(ns), nil
}
