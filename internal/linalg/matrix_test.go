package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewMatrixAndAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 7)
	if got := m.At(1, 2); got != 7 {
		t.Errorf("At(1,2) = %v, want 7", got)
	}
}

func TestNewMatrixInvalidDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(0, 1) did not panic")
		}
	}()
	NewMatrix(0, 1)
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds At did not panic")
		}
	}()
	m.At(2, 0)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Errorf("FromRows content wrong: %v %v", m.At(0, 1), m.At(1, 0))
	}
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("empty input did not error")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged input did not error")
	}
}

func TestRowColCopies(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 1 {
		t.Error("Row() returned a view, want a copy")
	}
	c := m.Col(1)
	if c[0] != 2 || c[1] != 4 {
		t.Errorf("Col(1) = %v, want [2 4]", c)
	}
	c[0] = 99
	if m.At(0, 1) != 2 {
		t.Error("Col() returned a view, want a copy")
	}
}

func TestTranspose(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose dims = %dx%d, want 3x2", tr.Rows(), tr.Cols())
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Errorf("transpose content wrong")
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if got.At(i, j) != want[i][j] {
				t.Errorf("Mul[%d][%d] = %v, want %v", i, j, got.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); err == nil {
		t.Error("dimension mismatch did not error")
	}
}

func TestMulVec(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	got, err := m.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", got)
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Error("MulVec length mismatch did not error")
	}
}

func TestIdentityAndIsSymmetric(t *testing.T) {
	id := Identity(3)
	if !id.IsSymmetric(0) {
		t.Error("identity not symmetric")
	}
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.IsSymmetric(1e-9) {
		t.Error("asymmetric matrix reported symmetric")
	}
	if NewMatrix(2, 3).IsSymmetric(1e-9) {
		t.Error("non-square matrix reported symmetric")
	}
}

func TestCovariance(t *testing.T) {
	// Two perfectly correlated columns and one anti-correlated.
	m, err := FromRows([][]float64{
		{1, 2, -1},
		{2, 4, -2},
		{3, 6, -3},
	})
	if err != nil {
		t.Fatal(err)
	}
	cov, err := CovarianceWorkers(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !cov.IsSymmetric(1e-12) {
		t.Error("covariance matrix not symmetric")
	}
	// Var(col0) = population variance of {1,2,3} = 2/3.
	if got := cov.At(0, 0); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Var(col0) = %v, want 2/3", got)
	}
	// Cov(col0, col1) = 2 * Var(col0).
	if got := cov.At(0, 1); math.Abs(got-4.0/3) > 1e-12 {
		t.Errorf("Cov(0,1) = %v, want 4/3", got)
	}
	// Cov(col0, col2) = -Var(col0).
	if got := cov.At(0, 2); math.Abs(got+2.0/3) > 1e-12 {
		t.Errorf("Cov(0,2) = %v, want -2/3", got)
	}
}

func TestCovarianceTooFewRows(t *testing.T) {
	m := NewMatrix(1, 3)
	if _, err := CovarianceWorkers(m, 1); err == nil {
		t.Error("covariance of 1 row did not error")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewMatrix(2, 2)
	c := m.Clone()
	c.Set(0, 0, 5)
	if m.At(0, 0) != 0 {
		t.Error("Clone shares storage")
	}
}

func TestRowViewAliasesBackingStore(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	v := m.RowView(1)
	if v[0] != 3 || v[1] != 4 {
		t.Fatalf("RowView(1) = %v, want [3 4]", v)
	}
	// Aliasing contract: writes through the view are visible in the
	// matrix and vice versa; Row stays an independent copy.
	v[0] = 9
	if m.At(1, 0) != 9 {
		t.Error("write through RowView not visible in matrix")
	}
	m.Set(1, 1, 7)
	if v[1] != 7 {
		t.Error("matrix write not visible through RowView")
	}
	c := m.Row(1)
	c[0] = -1
	if m.At(1, 0) != 9 {
		t.Error("Row copy aliases the matrix")
	}
	// The view's capacity is clipped: an append cannot clobber row 2.
	if cap(v) != 2 {
		t.Errorf("RowView capacity = %d, want 2 (clipped)", cap(v))
	}
}

func TestRowViewOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RowView(5) did not panic")
		}
	}()
	NewMatrix(2, 2).RowView(5)
}

func TestCovarianceWorkersMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	m := NewMatrix(97, 23)
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			m.Set(i, j, r.NormFloat64()*float64(j+1))
		}
	}
	base, err := CovarianceWorkers(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 23, 100} {
		got, err := CovarianceWorkers(m, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < base.Rows(); i++ {
			for j := 0; j < base.Cols(); j++ {
				if base.At(i, j) != got.At(i, j) {
					t.Fatalf("workers=%d: cov(%d,%d) = %v, want %v (bit-identical)",
						workers, i, j, got.At(i, j), base.At(i, j))
				}
			}
		}
	}
}
