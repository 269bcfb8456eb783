package kmeans

import (
	"math/rand"
	"testing"

	"flare/internal/linalg"
)

// benchMatrix builds an n x dim matrix shaped like FLARE's whitened PC
// scores (895 scenarios x 18 PCs in the paper).
func benchMatrix(n, dim int) *linalg.Matrix {
	r := rand.New(rand.NewSource(1))
	m := linalg.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			m.Set(i, j, r.NormFloat64())
		}
	}
	return m
}

func BenchmarkClusterPaperScale(b *testing.B) {
	m := benchMatrix(895, 18)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(m, 18, Options{Seed: rand.New(rand.NewSource(int64(i))).Int63()}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSilhouettePaperScale(b *testing.B) {
	m := benchMatrix(895, 18)
	res, err := Cluster(m, 18, Options{Seed: rand.New(rand.NewSource(1)).Int63()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Silhouette(m, res.Labels, 18); err != nil {
			b.Fatal(err)
		}
	}
}
