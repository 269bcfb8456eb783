package pca

import (
	"math/rand"
	"testing"

	"flare/internal/linalg"
)

// BenchmarkFitPaperScale fits a PCA at the paper's problem size
// (~895 scenarios x ~85 refined metrics).
func BenchmarkFitPaperScale(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	m := lowRankMatrix(r, 895, 85, 18, 0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitWorkers(m, DefaultVarianceTarget, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransformPaperScale projects the population through a fitted
// model.
func BenchmarkTransformPaperScale(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	m := lowRankMatrix(r, 895, 85, 18, 0.2)
	mod, err := FitWorkers(m, DefaultVarianceTarget, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mod.Transform(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPCAUpdate measures one incremental analysis step at paper
// scale: fold a changed row into the running moments (rank-1 Replace)
// and re-fit the model from them, its eigensolve started cold from the
// identity. This is the O(d^2) + eigensolve tick cost that replaces the
// O(n*d^2) batch standardise-and-covariance pass of Fit;
// BenchmarkPCAUpdateWarm is the same step as the incremental analyzer
// takes it, warm-started from the previous model.
func BenchmarkPCAUpdate(b *testing.B) {
	benchmarkPCAUpdate(b, false)
}

// BenchmarkPCAUpdateWarm is BenchmarkPCAUpdate with each fit passed the
// previous model, so the eigensolve starts from its components: one
// O(d^3) change of basis plus the sweeps the changed row still needs.
func BenchmarkPCAUpdateWarm(b *testing.B) {
	benchmarkPCAUpdate(b, true)
}

func benchmarkPCAUpdate(b *testing.B, warm bool) {
	r := rand.New(rand.NewSource(3))
	m := lowRankMatrix(r, 895, 85, 18, 0.2)
	rc := linalg.RunningCovFromMatrix(m)
	oldRow := append([]float64(nil), m.RowView(7)...)
	newRow := make([]float64, len(oldRow))
	for j := range newRow {
		newRow[j] = oldRow[j] + 0.1*r.NormFloat64()
	}
	var prev *Model
	if warm {
		var err error
		if prev, err = FitFromMoments(rc, DefaultVarianceTarget, nil); err != nil {
			b.Fatal(err)
		}
	}
	sweeps := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			rc.Replace(oldRow, newRow)
		} else {
			rc.Replace(newRow, oldRow)
		}
		mod, err := FitFromMoments(rc, DefaultVarianceTarget, prev)
		if err != nil {
			b.Fatal(err)
		}
		if warm {
			prev = mod
		}
		sweeps += mod.Sweeps
	}
	b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/op")
}
