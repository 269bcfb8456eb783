package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalQuantileKnownValues(t *testing.T) {
	tests := []struct {
		p    float64
		want float64
	}{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.95, 1.644854},
		{0.841344746, 1.0}, // CDF(1)
	}
	for _, tt := range tests {
		if got := NormalQuantile(tt.p); math.Abs(got-tt.want) > 1e-4 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestNormalQuantileOutOfRangePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestNormalCDFQuantileRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		// Map into a well-conditioned open interval.
		p := 0.001 + 0.998*(math.Abs(math.Mod(raw, 1.0)))
		if p >= 0.999 {
			p = 0.998
		}
		x := NormalQuantile(p)
		cdf := 0.5 * math.Erfc(-x/math.Sqrt2) // P(Z <= x)
		return math.Abs(cdf-p) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanCI(t *testing.T) {
	// 10k standard-normal draws: the 95% CI should bracket 0 tightly.
	r := rand.New(rand.NewSource(7))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	ci, err := MeanCI(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Contains(0) {
		t.Errorf("95%% CI %+v does not contain the true mean 0", ci)
	}
	wantHalf := 1.96 / math.Sqrt(10000)
	if math.Abs(ci.HalfWidth()-wantHalf) > 0.005 {
		t.Errorf("CI half width = %v, want ~%v", ci.HalfWidth(), wantHalf)
	}
}

func TestMeanCIErrors(t *testing.T) {
	if _, err := MeanCI([]float64{1}, 0.95); err == nil {
		t.Error("MeanCI with 1 observation did not error")
	}
	if _, err := MeanCI([]float64{1, 2}, 1.5); err == nil {
		t.Error("MeanCI with level > 1 did not error")
	}
}

func TestFinitePopulationCI(t *testing.T) {
	// Sampling the whole population leaves zero uncertainty.
	ci, err := FinitePopulationCI(10, 5, 100, 100, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ci.HalfWidth() > 1e-9 {
		t.Errorf("full-population CI half width = %v, want 0", ci.HalfWidth())
	}

	// A smaller sample must widen the interval.
	small, err := FinitePopulationCI(10, 5, 10, 100, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	large, err := FinitePopulationCI(10, 5, 50, 100, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if small.HalfWidth() <= large.HalfWidth() {
		t.Errorf("CI half width did not shrink with sample size: n=10 %v, n=50 %v",
			small.HalfWidth(), large.HalfWidth())
	}
}

func TestFinitePopulationCIErrors(t *testing.T) {
	if _, err := FinitePopulationCI(0, 1, 10, 5, 0.95); err == nil {
		t.Error("n > popSize did not error")
	}
	if _, err := FinitePopulationCI(0, 1, 0, 5, 0.95); err == nil {
		t.Error("n = 0 did not error")
	}
	if _, err := FinitePopulationCI(0, 1, 2, 5, 0); err == nil {
		t.Error("level = 0 did not error")
	}
}

func TestMeanCIPropertyCoverage(t *testing.T) {
	// Frequentist coverage check: across repeated experiments with a known
	// mean, the 95% CI should contain it roughly 95% of the time.
	r := rand.New(rand.NewSource(42))
	const trials = 400
	hits := 0
	for i := 0; i < trials; i++ {
		xs := make([]float64, 50)
		for j := range xs {
			xs[j] = 3 + 2*r.NormFloat64()
		}
		ci, err := MeanCI(xs, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if ci.Contains(3) {
			hits++
		}
	}
	coverage := float64(hits) / trials
	if coverage < 0.90 || coverage > 0.99 {
		t.Errorf("95%% CI empirical coverage = %v, want ~0.95", coverage)
	}
}
