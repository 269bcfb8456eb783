package mathx

import "math"

// Clamp returns x limited to the closed interval [lo, hi].
// It panics if lo > hi.
func Clamp(x, lo, hi float64) float64 {
	if lo > hi {
		panic("mathx: Clamp with lo > hi")
	}
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	default:
		return x
	}
}

// Clamp01 returns x limited to [0, 1].
func Clamp01(x float64) float64 {
	return Clamp(x, 0, 1)
}

// SafeDiv returns num/den, or fallback when den is (near) zero.
func SafeDiv(num, den, fallback float64) float64 {
	if math.Abs(den) < Epsilon {
		return fallback
	}
	return num / den
}
