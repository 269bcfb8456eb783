package stats

import (
	"errors"
	"math"
)

// NormalQuantile returns the p-th quantile of the standard normal
// distribution using the Acklam rational approximation, accurate to about
// 1.15e-9 over (0, 1). It panics for p outside (0, 1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: NormalQuantile requires p in (0,1)")
	}

	// Coefficients of the Acklam approximation.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00,
	}

	const (
		pLow  = 0.02425
		pHigh = 1 - pLow
	)

	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// ConfidenceInterval is a symmetric two-sided interval around a point
// estimate.
type ConfidenceInterval struct {
	Center float64 // point estimate (sample mean)
	Lower  float64 // lower bound
	Upper  float64 // upper bound
	Level  float64 // confidence level, e.g. 0.95
}

// HalfWidth returns the interval's half width.
func (ci ConfidenceInterval) HalfWidth() float64 {
	return (ci.Upper - ci.Lower) / 2
}

// Contains reports whether x lies inside the interval (inclusive).
func (ci ConfidenceInterval) Contains(x float64) bool {
	return x >= ci.Lower && x <= ci.Upper
}

// MeanCI returns a normal-theory confidence interval for the mean of xs at
// the given level (e.g. 0.95). It uses the sample standard deviation with
// the z quantile, which matches the paper's large-sample sampling analysis
// (Sec 5.3-5.4). It returns an error for samples smaller than 2 or levels
// outside (0, 1).
func MeanCI(xs []float64, level float64) (ConfidenceInterval, error) {
	if len(xs) < 2 {
		return ConfidenceInterval{}, errors.New("stats: MeanCI requires at least 2 observations")
	}
	if level <= 0 || level >= 1 {
		return ConfidenceInterval{}, errors.New("stats: confidence level must be in (0,1)")
	}
	m := Mean(xs)
	se := SampleStdDev(xs) / math.Sqrt(float64(len(xs)))
	z := NormalQuantile(0.5 + level/2)
	return ConfidenceInterval{
		Center: m,
		Lower:  m - z*se,
		Upper:  m + z*se,
		Level:  level,
	}, nil
}

// FinitePopulationCI returns the confidence interval for a sample mean
// drawn *without replacement* from a finite population of size popSize,
// applying the finite population correction. This models the paper's
// scenario-sampling baseline: sampling n of the 895 colocation scenarios.
func FinitePopulationCI(sampleMean, popStdDev float64, n, popSize int, level float64) (ConfidenceInterval, error) {
	if n < 1 || popSize < 1 || n > popSize {
		return ConfidenceInterval{}, errors.New("stats: invalid sample/population size")
	}
	if level <= 0 || level >= 1 {
		return ConfidenceInterval{}, errors.New("stats: confidence level must be in (0,1)")
	}
	se := popStdDev / math.Sqrt(float64(n))
	if popSize > 1 {
		fpc := math.Sqrt(float64(popSize-n) / float64(popSize-1))
		se *= fpc
	}
	z := NormalQuantile(0.5 + level/2)
	return ConfidenceInterval{
		Center: sampleMean,
		Lower:  sampleMean - z*se,
		Upper:  sampleMean + z*se,
		Level:  level,
	}, nil
}
