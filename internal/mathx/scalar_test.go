package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	tests := []struct {
		name      string
		x, lo, hi float64
		want      float64
	}{
		{"below", -1, 0, 1, 0},
		{"inside", 0.5, 0, 1, 0.5},
		{"above", 2, 0, 1, 1},
		{"at-lo", 0, 0, 1, 0},
		{"at-hi", 1, 0, 1, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Clamp(tt.x, tt.lo, tt.hi); got != tt.want {
				t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.x, tt.lo, tt.hi, got, tt.want)
			}
		})
	}
}

func TestClampInvertedBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Clamp with lo > hi did not panic")
		}
	}()
	Clamp(0, 1, -1)
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelativeError(110,100) = %v, want 0.1", got)
	}
	// Near-zero want falls back to absolute difference.
	if got := RelativeError(0.5, 0); got != 0.5 {
		t.Errorf("RelativeError(0.5,0) = %v, want 0.5", got)
	}
}

func TestLerp(t *testing.T) {
	if got := Lerp(2, 10, 0); got != 2 {
		t.Errorf("Lerp t=0 = %v, want 2", got)
	}
	if got := Lerp(2, 10, 1); got != 10 {
		t.Errorf("Lerp t=1 = %v, want 10", got)
	}
	if got := Lerp(2, 10, 0.5); got != 6 {
		t.Errorf("Lerp t=0.5 = %v, want 6", got)
	}
}

func TestSafeDiv(t *testing.T) {
	if got := SafeDiv(10, 2, -1); got != 5 {
		t.Errorf("SafeDiv(10,2) = %v, want 5", got)
	}
	if got := SafeDiv(10, 0, -1); got != -1 {
		t.Errorf("SafeDiv(10,0) = %v, want fallback -1", got)
	}
}

func TestClampPropertyResultInRange(t *testing.T) {
	f := func(x, a, b float64) bool {
		if math.IsNaN(x) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		got := Clamp(x, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp01PropertyIdempotent(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		once := Clamp01(x)
		return Clamp01(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
