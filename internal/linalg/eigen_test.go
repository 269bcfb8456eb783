package linalg

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSymmetricEigenDiagonal(t *testing.T) {
	m, _ := FromRows([][]float64{
		{3, 0, 0},
		{0, 1, 0},
		{0, 0, 2},
	})
	res, err := SymmetricEigen(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, w := range want {
		if math.Abs(res.Values[i]-w) > 1e-9 {
			t.Errorf("eigenvalue %d = %v, want %v", i, res.Values[i], w)
		}
	}
}

func TestSymmetricEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1 with eigenvectors
	// (1,1)/sqrt2 and (1,-1)/sqrt2.
	m, _ := FromRows([][]float64{{2, 1}, {1, 2}})
	res, err := SymmetricEigen(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Values[0]-3) > 1e-9 || math.Abs(res.Values[1]-1) > 1e-9 {
		t.Fatalf("eigenvalues = %v, want [3 1]", res.Values)
	}
	inv := 1 / math.Sqrt2
	v0 := res.Vectors[0]
	if math.Abs(math.Abs(v0[0])-inv) > 1e-9 || math.Abs(v0[0]-v0[1]) > 1e-9 {
		t.Errorf("first eigenvector = %v, want +-(0.707, 0.707)", v0)
	}
}

func TestSymmetricEigenRejectsAsymmetric(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := SymmetricEigen(m, nil); err == nil {
		t.Error("asymmetric input did not error")
	}
}

// randomSymmetric builds a random symmetric matrix A = B + B^T.
func randomSymmetric(r *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64() * 5
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestSymmetricEigenPropertyReconstruction(t *testing.T) {
	// A v = lambda v must hold for every eigenpair.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		m := randomSymmetric(r, n)
		res, err := SymmetricEigen(m, nil)
		if err != nil {
			return false
		}
		for k := 0; k < n; k++ {
			av, err := m.MulVec(res.Vectors[k])
			if err != nil {
				return false
			}
			for i := 0; i < n; i++ {
				if math.Abs(av[i]-res.Values[k]*res.Vectors[k][i]) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSymmetricEigenPropertyOrthonormal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		res, err := SymmetricEigen(randomSymmetric(r, n), nil)
		if err != nil {
			return false
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				var dot float64
				for i := 0; i < n; i++ {
					dot += res.Vectors[a][i] * res.Vectors[b][i]
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSymmetricEigenPropertyTracePreserved(t *testing.T) {
	// Sum of eigenvalues equals the trace.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		m := randomSymmetric(r, n)
		res, err := SymmetricEigen(m, nil)
		if err != nil {
			return false
		}
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += m.At(i, i)
			sum += res.Values[i]
		}
		return math.Abs(trace-sum) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSymmetricEigenValuesDescending(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		res, err := SymmetricEigen(randomSymmetric(r, n), nil)
		if err != nil {
			return false
		}
		for i := 1; i < len(res.Values); i++ {
			if res.Values[i] > res.Values[i-1]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSymmetricEigenDeterministicSign(t *testing.T) {
	// Repeated decompositions of the same matrix must agree exactly,
	// including eigenvector signs (canonicalSign).
	r := rand.New(rand.NewSource(11))
	m := randomSymmetric(r, 6)
	a, err := SymmetricEigen(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SymmetricEigen(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Vectors {
		for i := range a.Vectors[k] {
			if a.Vectors[k][i] != b.Vectors[k][i] {
				t.Fatalf("non-deterministic eigenvector %d", k)
			}
		}
	}
}

// rotateBasis returns a copy of basis with every adjacent pair of vectors
// turned by a small seeded angle: an orthonormal basis near the input.
func rotateBasis(r *rand.Rand, basis [][]float64, angle float64) [][]float64 {
	out := make([][]float64, len(basis))
	for k, v := range basis {
		out[k] = append([]float64(nil), v...)
	}
	for k := 0; k+1 < len(out); k++ {
		th := angle * r.NormFloat64()
		c, s := math.Cos(th), math.Sin(th)
		rotateRows(out[k], out[k+1], c, s)
	}
	return out
}

func cloneBasis(basis [][]float64) [][]float64 {
	out := make([][]float64, len(basis))
	for k, v := range basis {
		out[k] = append([]float64(nil), v...)
	}
	return out
}

func TestSymmetricEigenWarmStartExactBasisNoSweeps(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	m := randomSymmetric(r, 10)
	cold, err := SymmetricEigen(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Sweeps == 0 {
		t.Fatal("cold solve of a dense matrix ran no sweeps")
	}
	warm, err := SymmetricEigen(m, cold.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Sweeps != 0 {
		t.Errorf("warm start from the exact eigenbasis ran %d sweeps, want 0", warm.Sweeps)
	}
	for k := range cold.Values {
		if d := math.Abs(warm.Values[k] - cold.Values[k]); d > 1e-12 {
			t.Errorf("eigenvalue %d differs by %g", k, d)
		}
		for i := range cold.Vectors[k] {
			if d := math.Abs(warm.Vectors[k][i] - cold.Vectors[k][i]); d > 1e-12 {
				t.Fatalf("eigenvector %d[%d] differs by %g", k, i, d)
			}
		}
	}
}

func TestSymmetricEigenWarmStartPerturbedMatchesCold(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(30)
		m := randomSymmetric(r, n)
		cold, err := SymmetricEigen(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Flip some signs too: the output must come back canonical.
		start := rotateBasis(r, cold.Vectors, 1e-3)
		for k := 0; k < n; k += 3 {
			for i := range start[k] {
				start[k][i] = -start[k][i]
			}
		}
		warm, err := SymmetricEigen(m, start)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Sweeps >= cold.Sweeps {
			t.Errorf("seed %d: warm start ran %d sweeps, cold %d", seed, warm.Sweeps, cold.Sweeps)
		}
		for k := range cold.Values {
			if d := math.Abs(warm.Values[k] - cold.Values[k]); d > 1e-12 {
				t.Errorf("seed %d: eigenvalue %d differs by %g", seed, k, d)
			}
			for i := range cold.Vectors[k] {
				if d := math.Abs(warm.Vectors[k][i] - cold.Vectors[k][i]); d > 1e-9 {
					t.Fatalf("seed %d: eigenvector %d[%d] differs by %g", seed, k, i, d)
				}
			}
		}
	}
}

func TestSymmetricEigenMisSizedStartIsCold(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	m := randomSymmetric(r, 6)
	cold, err := SymmetricEigen(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	square := Identity(5)
	short := make([][]float64, 5)
	for k := range short {
		short[k] = square.Row(k)
	}
	ragged := cloneBasis(cold.Vectors)
	ragged[2] = ragged[2][:5]
	for name, start := range map[string][][]float64{"too few vectors": short, "ragged": ragged} {
		got, err := SymmetricEigen(m, start)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, cold) {
			t.Errorf("%s: result differs from the cold solve", name)
		}
	}
}

func TestSymmetricEigenDoesNotWriteStart(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	m := randomSymmetric(r, 9)
	cold, err := SymmetricEigen(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := rotateBasis(r, cold.Vectors, 0.1)
	want := cloneBasis(start)
	warm, err := SymmetricEigen(m, start)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(start, want) {
		t.Error("SymmetricEigen wrote into the start basis")
	}
	for k := range warm.Vectors {
		if &warm.Vectors[k][0] == &start[k][0] {
			t.Fatalf("result vector %d aliases the start basis", k)
		}
	}
}
