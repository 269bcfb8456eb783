// Package mathx provides small numeric helpers shared across the FLARE
// codebase: dense float64 vectors, zero-safe ratios, and clamping.
//
// Everything here is allocation-conscious and deterministic; no package
// state is mutated.
package mathx

import (
	"fmt"
	"math"
)

// Epsilon is the default tolerance used by approximate comparisons in this
// package. It is deliberately loose enough to absorb accumulated rounding
// across the linear-algebra pipeline.
const Epsilon = 1e-9

// Vector is a dense float64 vector. The zero value is an empty vector.
type Vector []float64

// NewVector returns a zero-filled vector of length n.
func NewVector(n int) Vector {
	return make(Vector, n)
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product of v and w.
// It panics if the lengths differ, because a length mismatch is always a
// programming error rather than a data error.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mathx: dot of mismatched lengths %d and %d", len(v), len(w)))
	}
	var sum float64
	for i := range v {
		sum += v[i] * w[i]
	}
	return sum
}

// Norm returns the Euclidean (L2) norm of v.
func (v Vector) Norm() float64 {
	return math.Sqrt(v.Dot(v))
}

// DistanceSq returns the squared Euclidean distance between v and w.
func (v Vector) DistanceSq(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mathx: distance of mismatched lengths %d and %d", len(v), len(w)))
	}
	var sum float64
	for i := range v {
		d := v[i] - w[i]
		sum += d * d
	}
	return sum
}

// Distance returns the Euclidean distance between v and w.
func (v Vector) Distance(w Vector) float64 {
	return math.Sqrt(v.DistanceSq(w))
}

// Add returns v + w as a new vector.
func (v Vector) Add(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mathx: add of mismatched lengths %d and %d", len(v), len(w)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w as a new vector.
func (v Vector) Sub(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mathx: sub of mismatched lengths %d and %d", len(v), len(w)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// AccumulateInto adds v into dst element-wise. dst must have the same
// length as v. This is the allocation-free counterpart of Add used in hot
// loops (k-means centroid updates).
func (v Vector) AccumulateInto(dst Vector) {
	if len(v) != len(dst) {
		panic(fmt.Sprintf("mathx: accumulate of mismatched lengths %d and %d", len(v), len(dst)))
	}
	for i := range v {
		dst[i] += v[i]
	}
}

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum
}

// Max returns the maximum element of v, or -Inf for an empty vector.
func (v Vector) Max() float64 {
	out := math.Inf(-1)
	for _, x := range v {
		if x > out {
			out = x
		}
	}
	return out
}

// Min returns the minimum element of v, or +Inf for an empty vector.
func (v Vector) Min() float64 {
	out := math.Inf(1)
	for _, x := range v {
		if x < out {
			out = x
		}
	}
	return out
}

// IsFinite reports whether every element of v is finite (neither NaN nor
// infinite).
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
