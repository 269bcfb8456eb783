package linalg

import (
	"math/rand"
	"testing"
)

// BenchmarkSymmetricEigen85 decomposes a covariance matrix at the paper's
// refined-metric dimensionality.
func BenchmarkSymmetricEigen85(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	m := randomSymmetric(r, 85)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SymmetricEigen(m, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCovariancePaperScale computes an 85x85 covariance from 895
// observations.
func BenchmarkCovariancePaperScale(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	m := NewMatrix(895, 85)
	for i := 0; i < 895; i++ {
		for j := 0; j < 85; j++ {
			m.Set(i, j, r.NormFloat64())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CovarianceWorkers(m, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMul measures dense multiplication at a representative size.
func BenchmarkMul(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	a := NewMatrix(200, 100)
	c := NewMatrix(100, 200)
	for i := 0; i < 200; i++ {
		for j := 0; j < 100; j++ {
			a.Set(i, j, r.NormFloat64())
			c.Set(j, i, r.NormFloat64())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Mul(c); err != nil {
			b.Fatal(err)
		}
	}
}
