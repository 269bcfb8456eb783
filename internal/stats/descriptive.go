// Package stats implements the descriptive and inferential statistics the
// FLARE pipeline depends on: moments, correlation, quantiles, histograms,
// and normal-theory confidence intervals.
//
// All functions are pure and operate on plain []float64 slices so the
// package stays decoupled from the rest of the codebase.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot produce a meaningful
// result from an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (divisor n), or 0 when
// len(xs) < 2. FLARE standardises metric columns with population moments,
// matching the usual PCA convention.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// SampleVariance returns the unbiased sample variance of xs (divisor n-1),
// or 0 when len(xs) < 2.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return Variance(xs) * float64(len(xs)) / float64(len(xs)-1)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// SampleStdDev returns the sample standard deviation of xs.
func SampleStdDev(xs []float64) float64 {
	return math.Sqrt(SampleVariance(xs))
}

// Covariance returns the population covariance of paired samples xs, ys.
// It panics if the lengths differ.
func Covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: covariance of mismatched lengths")
	}
	if len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sum float64
	for i := range xs {
		sum += (xs[i] - mx) * (ys[i] - my)
	}
	return sum / float64(len(xs))
}

// Correlation returns the Pearson correlation coefficient of xs and ys in
// [-1, 1]. When either sample has (near) zero variance the correlation is
// undefined and 0 is returned, which is the safe choice for the metric
// refinement step (a constant metric is never "duplicated by" another).
func Correlation(xs, ys []float64) float64 {
	sx, sy := StdDev(xs), StdDev(ys)
	if sx < 1e-12 || sy < 1e-12 {
		return 0
	}
	r := Covariance(xs, ys) / (sx * sy)
	// Guard against rounding pushing |r| slightly above 1.
	if r > 1 {
		return 1
	}
	if r < -1 {
		return -1
	}
	return r
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks (the same scheme as numpy's default).
// It returns ErrEmpty for an empty sample and an error for q outside [0,1].
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// MinMax returns the minimum and maximum of xs, or ErrEmpty.
func MinMax(xs []float64) (minVal, maxVal float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	minVal, maxVal = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < minVal {
			minVal = x
		}
		if x > maxVal {
			maxVal = x
		}
	}
	return minVal, maxVal, nil
}

// Standardize returns (xs - mean)/std as a new slice, along with the mean
// and std used. When std is (near) zero the column is returned centred but
// unscaled, so constant metrics become all-zero rather than NaN.
func Standardize(xs []float64) (z []float64, mean, std float64) {
	mean = Mean(xs)
	std = StdDev(xs)
	z = make([]float64, len(xs))
	if std < 1e-12 {
		for i, x := range xs {
			z[i] = x - mean
		}
		return z, mean, 0
	}
	for i, x := range xs {
		z[i] = (x - mean) / std
	}
	return z, mean, std
}
