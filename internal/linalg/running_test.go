package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func randMatrix(t *testing.T, rng *rand.Rand, rows, cols int) *Matrix {
	t.Helper()
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64()*float64(j+1)+float64(j))
		}
	}
	return m
}

func maxAbsDiff(t *testing.T, a, b *Matrix) float64 {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	var worst float64
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if d := math.Abs(a.At(i, j) - b.At(i, j)); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func TestRunningCovMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randMatrix(t, rng, 57, 9)
	rc := RunningCovFromMatrix(m)
	if rc.N() != m.Rows() {
		t.Fatalf("N=%d, want %d", rc.N(), m.Rows())
	}
	got, err := rc.Cov()
	if err != nil {
		t.Fatal(err)
	}
	want, err := CovarianceWorkers(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(t, got, want); d > 1e-9 {
		t.Fatalf("running covariance differs from batch by %g", d)
	}
}

func TestRunningCovReplaceMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randMatrix(t, rng, 40, 6)
	rc := RunningCovFromMatrix(m)

	// Replace a third of the rows and add a few new ones, mirroring a tick.
	for _, i := range []int{0, 7, 13, 25, 39} {
		old := m.Row(i)
		row := m.RowView(i)
		for j := range row {
			row[j] += rng.NormFloat64()
		}
		rc.Replace(old, row)
	}
	extra := randMatrix(t, rng, 5, 6)
	for i := 0; i < extra.Rows(); i++ {
		rc.Add(extra.RowView(i))
	}

	full := NewMatrix(m.Rows()+extra.Rows(), m.Cols())
	for i := 0; i < m.Rows(); i++ {
		copy(full.RowView(i), m.RowView(i))
	}
	for i := 0; i < extra.Rows(); i++ {
		copy(full.RowView(m.Rows()+i), extra.RowView(i))
	}

	got, err := rc.Cov()
	if err != nil {
		t.Fatal(err)
	}
	want, err := CovarianceWorkers(full, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(t, got, want); d > 1e-9 {
		t.Fatalf("running covariance after replace/add differs from rebuild by %g", d)
	}
	for j := 0; j < full.Cols(); j++ {
		var mean float64
		for i := 0; i < full.Rows(); i++ {
			mean += full.At(i, j)
		}
		mean /= float64(full.Rows())
		if d := math.Abs(rc.Mean()[j] - mean); d > 1e-9 {
			t.Fatalf("running mean[%d] differs from rebuild by %g", j, d)
		}
	}
}

func TestRunningCovRemoveToEmpty(t *testing.T) {
	rc := NewRunningCov(3)
	x := []float64{1, 2, 3}
	y := []float64{-1, 0, 5}
	rc.Add(x)
	rc.Add(y)
	rc.Remove(x)
	rc.Remove(y)
	if rc.N() != 0 {
		t.Fatalf("N = %d after removing everything, want 0", rc.N())
	}
	for _, v := range rc.Mean() {
		if v != 0 {
			t.Fatalf("mean %v not reset after emptying", rc.Mean())
		}
	}
	if _, err := rc.Cov(); err == nil {
		t.Fatal("Cov on empty accumulator should error")
	}
}

func TestRunningCovCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randMatrix(t, rng, 80, 4)
	// Make column 2 constant: its correlations must come out zero.
	for i := 0; i < m.Rows(); i++ {
		m.Set(i, 2, 42)
	}
	rc := RunningCovFromMatrix(m)
	corr, stds, err := rc.Correlation(1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if stds[2] != 0 {
		t.Fatalf("constant column std = %g, want 0", stds[2])
	}
	for j := 0; j < 4; j++ {
		if j == 2 {
			if math.Abs(corr.At(2, 2)) > 1e-18 {
				t.Fatalf("constant column variance %g, want 0", corr.At(2, 2))
			}
			continue
		}
		if d := math.Abs(corr.At(j, j) - 1); d > 1e-9 {
			t.Fatalf("diagonal corr[%d][%d] = %g, want 1", j, j, corr.At(j, j))
		}
	}
	if !corr.IsSymmetric(0) {
		t.Fatal("correlation matrix not exactly symmetric")
	}
}

func TestRunningCovPanics(t *testing.T) {
	assertPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanic("NewRunningCov(0)", func() { NewRunningCov(0) })
	assertPanic("dim mismatch", func() { NewRunningCov(2).Add([]float64{1}) })
	assertPanic("remove from empty", func() { NewRunningCov(2).Remove([]float64{1, 2}) })
}
