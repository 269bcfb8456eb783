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
