package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorDot(t *testing.T) {
	tests := []struct {
		name string
		v, w Vector
		want float64
	}{
		{"empty", Vector{}, Vector{}, 0},
		{"orthogonal", Vector{1, 0}, Vector{0, 1}, 0},
		{"parallel", Vector{1, 2, 3}, Vector{1, 2, 3}, 14},
		{"negative", Vector{1, -2}, Vector{3, 4}, -5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Dot(tt.w); got != tt.want {
				t.Errorf("Dot() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVectorDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestVectorNorm(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm() = %v, want 5", got)
	}
	if got := (Vector{}).Norm(); got != 0 {
		t.Errorf("empty Norm() = %v, want 0", got)
	}
}

func TestVectorDistance(t *testing.T) {
	v := Vector{1, 1}
	w := Vector{4, 5}
	if got := v.Distance(w); got != 5 {
		t.Errorf("Distance() = %v, want 5", got)
	}
	if got := v.DistanceSq(w); got != 25 {
		t.Errorf("DistanceSq() = %v, want 25", got)
	}
}

// approxEqual reports whether v and w have the same length and every
// element pair differs by at most tol.
func approxEqual(v, w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

func TestVectorArithmetic(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{10, 20, 30}

	if got := v.Add(w); !approxEqual(got, Vector{11, 22, 33}, 0) {
		t.Errorf("Add() = %v", got)
	}
	if got := w.Sub(v); !approxEqual(got, Vector{9, 18, 27}, 0) {
		t.Errorf("Sub() = %v", got)
	}
	if got := v.Sum(); got != 6 {
		t.Errorf("Sum() = %v, want 6", got)
	}
}

func TestVectorCloneIsDeep(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone() shares backing storage with original")
	}
}

func TestVectorAccumulateInto(t *testing.T) {
	dst := Vector{1, 1}
	Vector{2, 3}.AccumulateInto(dst)
	if !approxEqual(dst, Vector{3, 4}, 0) {
		t.Errorf("AccumulateInto() = %v, want [3 4]", dst)
	}
}

func TestVectorMinMax(t *testing.T) {
	v := Vector{3, -1, 7, 0}
	if got := v.Max(); got != 7 {
		t.Errorf("Max() = %v, want 7", got)
	}
	if got := v.Min(); got != -1 {
		t.Errorf("Min() = %v, want -1", got)
	}
	if got := (Vector{}).Max(); !math.IsInf(got, -1) {
		t.Errorf("empty Max() = %v, want -Inf", got)
	}
}

func TestVectorIsFinite(t *testing.T) {
	if !(Vector{1, 2}).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (Vector{1, math.NaN()}).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if (Vector{math.Inf(1)}).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

// randomVec produces a bounded random vector for property tests.
func randomVec(r *rand.Rand, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = r.Float64()*200 - 100
	}
	return v
}

func TestVectorPropertyCauchySchwarz(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(32)
		v, w := randomVec(r, n), randomVec(r, n)
		return math.Abs(v.Dot(w)) <= v.Norm()*w.Norm()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorPropertyTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(32)
		a, b, c := randomVec(rr, n), randomVec(rr, n), randomVec(rr, n)
		return a.Distance(c) <= a.Distance(b)+b.Distance(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorPropertyAddSubRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(32)
		v, w := randomVec(rr, n), randomVec(rr, n)
		return approxEqual(v.Add(w).Sub(w), v, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
