package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"several", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); got != tt.want {
				t.Errorf("Mean(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{7}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestSampleVariance(t *testing.T) {
	xs := []float64{1, 2, 3}
	if got := SampleVariance(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("SampleVariance = %v, want 1", got)
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	tests := []struct {
		name string
		ys   []float64
		want float64
	}{
		{"perfect-positive", []float64{2, 4, 6, 8}, 1},
		{"perfect-negative", []float64{8, 6, 4, 2}, -1},
		{"constant", []float64{5, 5, 5, 5}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Correlation(xs, tt.ys); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Correlation = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCovarianceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Covariance with mismatched lengths did not panic")
		}
	}()
	Covariance([]float64{1}, []float64{1, 2})
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // deliberately unsorted

	tests := []struct {
		name string
		q    float64
		want float64
	}{
		{"min", 0, 1},
		{"max", 1, 4},
		{"median", 0.5, 2.5},
		{"q25", 0.25, 1.75},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Quantile(xs, tt.q)
			if err != nil {
				t.Fatalf("Quantile error: %v", err)
			}
			if math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
			}
		})
	}

	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("Quantile of empty sample did not error")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("Quantile with q>1 did not error")
	}
	// Quantile must not mutate its input.
	if xs[0] != 4 {
		t.Error("Quantile sorted the caller's slice")
	}
}

func TestMedianSingleton(t *testing.T) {
	got, err := Quantile([]float64{42}, 0.5)
	if err != nil || got != 42 {
		t.Errorf("Quantile([42], 0.5) = %v, %v", got, err)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 9, 0})
	if err != nil {
		t.Fatal(err)
	}
	if lo != -1 || hi != 9 {
		t.Errorf("MinMax = (%v, %v), want (-1, 9)", lo, hi)
	}
	if _, _, err := MinMax(nil); err == nil {
		t.Error("MinMax of empty sample did not error")
	}
}

func TestStandardize(t *testing.T) {
	z, mean, std := Standardize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 || std != 2 {
		t.Fatalf("Standardize moments = (%v, %v), want (5, 2)", mean, std)
	}
	if got := Mean(z); math.Abs(got) > 1e-12 {
		t.Errorf("standardized mean = %v, want 0", got)
	}
	if got := StdDev(z); math.Abs(got-1) > 1e-12 {
		t.Errorf("standardized std = %v, want 1", got)
	}
}

func TestStandardizeConstantColumn(t *testing.T) {
	z, _, std := Standardize([]float64{3, 3, 3})
	if std != 0 {
		t.Errorf("constant column std = %v, want 0", std)
	}
	for _, v := range z {
		if v != 0 {
			t.Errorf("constant column standardized to %v, want all zeros", z)
			break
		}
	}
}

func TestCorrelationPropertyBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(64)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		c := Correlation(xs, ys)
		return c >= -1 && c <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCorrelationPropertySymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(64)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		return math.Abs(Correlation(xs, ys)-Correlation(ys, xs)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVariancePropertyShiftInvariant(t *testing.T) {
	f := func(seed int64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(64)
		xs := make([]float64, n)
		shifted := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
			shifted[i] = xs[i] + shift
		}
		return math.Abs(Variance(xs)-Variance(shifted)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
