package pca

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"flare/internal/linalg"
	"flare/internal/stats"
)

// lowRankMatrix builds an n x d matrix whose columns are noisy mixtures of
// `rank` latent factors, so PCA should need about `rank` components.
func lowRankMatrix(r *rand.Rand, n, d, rank int, noise float64) *linalg.Matrix {
	loadings := make([][]float64, d)
	for j := range loadings {
		loadings[j] = make([]float64, rank)
		for k := range loadings[j] {
			loadings[j][k] = r.NormFloat64()
		}
	}
	m := linalg.NewMatrix(n, d)
	factors := make([]float64, rank)
	for i := 0; i < n; i++ {
		for k := range factors {
			factors[k] = r.NormFloat64()
		}
		for j := 0; j < d; j++ {
			var v float64
			for k, f := range factors {
				v += loadings[j][k] * f
			}
			m.Set(i, j, v+noise*r.NormFloat64())
		}
	}
	return m
}

func TestFitValidation(t *testing.T) {
	m := linalg.NewMatrix(5, 3)
	if _, err := FitWorkers(nil, 0.95, 1); err == nil {
		t.Error("nil matrix did not error")
	}
	if _, err := FitWorkers(m, 0, 1); err == nil {
		t.Error("zero variance target did not error")
	}
	if _, err := FitWorkers(m, 1.5, 1); err == nil {
		t.Error("variance target > 1 did not error")
	}
	if _, err := FitWorkers(linalg.NewMatrix(1, 3), 0.95, 1); err == nil {
		t.Error("single observation did not error")
	}
	// An all-constant matrix has zero variance.
	if _, err := FitWorkers(linalg.NewMatrix(10, 3), 0.95, 1); err == nil {
		t.Error("zero-variance input did not error")
	}
}

func TestFitRecoversLatentRank(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := lowRankMatrix(r, 400, 30, 5, 0.05)
	mod, err := FitWorkers(m, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mod.NumPC < 4 || mod.NumPC > 8 {
		t.Errorf("NumPC = %d for a rank-5 latent structure, want ~5", mod.NumPC)
	}
	// The first 5 PCs should explain nearly everything.
	cum := mod.CumulativeExplained()
	if cum[4] < 0.9 {
		t.Errorf("cumulative explained by 5 PCs = %v, want >= 0.9", cum[4])
	}
}

func TestExplainedVarianceSumsToOne(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	m := lowRankMatrix(r, 100, 10, 3, 0.2)
	mod, err := FitWorkers(m, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, e := range mod.Explained {
		if e < 0 {
			t.Errorf("negative explained variance %v", e)
		}
		sum += e
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("explained variance sums to %v, want 1", sum)
	}
	// Non-increasing.
	for k := 1; k < len(mod.Explained); k++ {
		if mod.Explained[k] > mod.Explained[k-1]+1e-9 {
			t.Errorf("explained variance not sorted at %d", k)
		}
	}
}

func TestTransformScoresHaveEigenvalueVariance(t *testing.T) {
	// The variance of PC k's scores must equal its eigenvalue
	// (explained_k * total variance).
	r := rand.New(rand.NewSource(9))
	m := lowRankMatrix(r, 500, 12, 4, 0.1)
	mod, err := FitWorkers(m, 0.99, 1)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := mod.Transform(m)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for j := 0; j < m.Cols(); j++ {
		_, _, std := stats.Standardize(m.Col(j))
		if std > 0 {
			total++ // each standardised column contributes variance 1
		}
	}
	for k := 0; k < mod.NumPC; k++ {
		got := stats.Variance(scores.Col(k))
		want := mod.Explained[k] * total
		if math.Abs(got-want) > 0.05*want+1e-9 {
			t.Errorf("PC%d score variance = %v, want %v", k, got, want)
		}
	}
}

func TestTransformScoresUncorrelated(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	m := lowRankMatrix(r, 300, 10, 4, 0.1)
	mod, err := FitWorkers(m, 0.99, 1)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := mod.Transform(m)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < mod.NumPC; a++ {
		for b := a + 1; b < mod.NumPC; b++ {
			c := stats.Correlation(scores.Col(a), scores.Col(b))
			if math.Abs(c) > 0.05 {
				t.Errorf("PC%d and PC%d scores correlate at %v, want ~0", a, b, c)
			}
		}
	}
}

func TestTransformDimensionMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	mod, err := FitWorkers(lowRankMatrix(r, 50, 6, 2, 0.1), 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mod.Transform(linalg.NewMatrix(5, 3)); err == nil {
		t.Error("column mismatch did not error")
	}
}

func TestFitHandlesConstantColumn(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	m := linalg.NewMatrix(100, 3)
	for i := 0; i < 100; i++ {
		m.Set(i, 0, r.NormFloat64())
		m.Set(i, 1, 42) // constant
		m.Set(i, 2, r.NormFloat64())
	}
	mod, err := FitWorkers(m, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := mod.Transform(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < scores.Rows(); i++ {
		for k := 0; k < scores.Cols(); k++ {
			v := scores.At(i, k)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("constant column produced non-finite scores")
			}
		}
	}
}

func TestComponentsOrthonormalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := lowRankMatrix(r, 60, 4+r.Intn(6), 2, 0.3)
		mod, err := FitWorkers(m, 1.0, 1)
		if err != nil {
			return false
		}
		for a := range mod.Components {
			for b := range mod.Components {
				var dot float64
				for j := range mod.Components[a] {
					dot += mod.Components[a][j] * mod.Components[b][j]
				}
				want := 0.0
				if a == b {
					want = 1.0
				}
				if math.Abs(dot-want) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestVarianceTargetMonotoneProperty(t *testing.T) {
	// A higher variance target can never select fewer components.
	r := rand.New(rand.NewSource(13))
	m := lowRankMatrix(r, 200, 20, 6, 0.2)
	prev := 0
	for _, target := range []float64{0.5, 0.7, 0.9, 0.99, 1.0} {
		mod, err := FitWorkers(m, target, 1)
		if err != nil {
			t.Fatal(err)
		}
		if mod.NumPC < prev {
			t.Errorf("target %v selected %d PCs, fewer than lower target's %d", target, mod.NumPC, prev)
		}
		prev = mod.NumPC
	}
}

// TestFitFromMomentsMatchesFitWorkers pins the equivalence that makes
// incremental analysis exact in exact arithmetic: PCA over standardised
// data equals the eigendecomposition of the correlation matrix built from
// running raw moments.
func TestFitFromMomentsMatchesFitWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	m := lowRankMatrix(r, 120, 14, 5, 0.3)
	// A constant column exercises the zero-std centre-only convention.
	for i := 0; i < m.Rows(); i++ {
		m.Set(i, 3, 7)
	}

	batch, err := FitWorkers(m, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := FitFromMoments(linalg.RunningCovFromMatrix(m), 0.95, nil)
	if err != nil {
		t.Fatal(err)
	}

	if inc.NumPC != batch.NumPC {
		t.Fatalf("NumPC = %d incremental vs %d batch", inc.NumPC, batch.NumPC)
	}
	const tol = 1e-9
	for j := range batch.Means {
		if d := math.Abs(inc.Means[j] - batch.Means[j]); d > tol {
			t.Fatalf("mean[%d] differs by %g", j, d)
		}
		if d := math.Abs(inc.Stds[j] - batch.Stds[j]); d > tol {
			t.Fatalf("std[%d] differs by %g", j, d)
		}
	}
	for k := 0; k < batch.NumPC; k++ {
		if d := math.Abs(inc.Explained[k] - batch.Explained[k]); d > tol {
			t.Fatalf("explained[%d] differs by %g", k, d)
		}
		for j := range batch.Components[k] {
			if d := math.Abs(inc.Components[k][j] - batch.Components[k][j]); d > 1e-7 {
				t.Fatalf("component[%d][%d] differs by %g", k, j, d)
			}
		}
	}
}

// TestFitFromMomentsAfterUpdates checks that a moment accumulator updated
// with Replace/Add ticks fits the same model a fresh batch fit over the
// final data would.
func TestFitFromMomentsAfterUpdates(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	m := lowRankMatrix(r, 90, 10, 4, 0.4)
	rc := linalg.RunningCovFromMatrix(m)
	before, err := FitFromMoments(rc, 0.95, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, i := range []int{2, 41, 88} {
		old := m.Row(i)
		row := m.RowView(i)
		for j := range row {
			row[j] += r.NormFloat64() * 0.5
		}
		rc.Replace(old, row)
	}

	batch, err := FitWorkers(m, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Cold, and warm-started from the model fitted before the updates.
	for _, prev := range []*Model{nil, before} {
		inc, err := FitFromMoments(rc, 0.95, prev)
		if err != nil {
			t.Fatal(err)
		}
		if inc.NumPC != batch.NumPC {
			t.Fatalf("NumPC = %d incremental vs %d batch", inc.NumPC, batch.NumPC)
		}
		for k := 0; k < batch.NumPC; k++ {
			for j := range batch.Components[k] {
				if d := math.Abs(inc.Components[k][j] - batch.Components[k][j]); d > 1e-7 {
					t.Fatalf("warm=%v: component[%d][%d] differs by %g after ticks", prev != nil, k, j, d)
				}
			}
		}
		if prev != nil && inc.Sweeps >= before.Sweeps {
			t.Errorf("warm fit ran %d sweeps, cold fit %d", inc.Sweeps, before.Sweeps)
		}
	}
}

func TestFitFromMomentsValidation(t *testing.T) {
	if _, err := FitFromMoments(nil, 0.95, nil); err == nil {
		t.Error("nil accumulator did not error")
	}
	rc := linalg.NewRunningCov(3)
	if _, err := FitFromMoments(rc, 0.95, nil); err == nil {
		t.Error("empty accumulator did not error")
	}
	rc.Add([]float64{1, 2, 3})
	rc.Add([]float64{4, 5, 6})
	if _, err := FitFromMoments(rc, 0, nil); err == nil {
		t.Error("zero variance target did not error")
	}
	if _, err := FitFromMoments(rc, 1.5, nil); err == nil {
		t.Error("variance target > 1 did not error")
	}
}
