// Package linalg implements the dense linear algebra FLARE's Analyzer
// needs: a row-major matrix type, covariance computation, and a Jacobi
// eigendecomposition for symmetric matrices (the engine behind PCA).
//
// The implementation is stdlib-only and tuned for the problem sizes FLARE
// sees in practice (hundreds of scenarios x ~100 metrics), where the
// O(n^3) Jacobi sweep is more than fast enough and numerically very
// robust for symmetric matrices.
package linalg

import (
	"errors"
	"fmt"
	"math"

	"flare/internal/parallel"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero-filled rows x cols matrix.
// It panics on non-positive dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
// It returns an error if rows is empty or ragged.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("linalg: FromRows requires a non-empty rectangular input")
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("linalg: ragged input: row %d has %d columns, want %d", i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of bounds for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i. Hot paths that only need to *read* a row
// should use RowView instead and skip the allocation.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of bounds for %dx%d matrix", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RowView returns row i as a slice aliasing the matrix's backing store —
// no copy is made. Aliasing contract: the view stays valid for the
// matrix's lifetime, writes through the view write the matrix (and vice
// versa), so callers that need a stable snapshot must use Row. The
// analysis hot paths (k-means point access, silhouette, PCA projection)
// treat views as read-only.
func (m *Matrix) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of bounds for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: col %d out of bounds for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// GrowRows appends n zero-filled rows in place, reusing the backing array
// when capacity allows. The profiler's tick path uses it to extend a
// dataset as the scenario population grows. Row views taken before the
// call may be invalidated by reallocation.
func (m *Matrix) GrowRows(n int) {
	if n < 0 {
		panic(fmt.Sprintf("linalg: GrowRows(%d) with negative count", n))
	}
	if n == 0 {
		return
	}
	need := (m.rows + n) * m.cols
	if cap(m.data) >= need {
		grown := m.data[:need]
		for i := m.rows * m.cols; i < need; i++ {
			grown[i] = 0
		}
		m.data = grown
	} else {
		data := make([]float64, need)
		copy(data, m.data)
		m.data = data
	}
	m.rows += n
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Transpose returns m's transpose as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns m*other. It returns an error on a dimension mismatch.
func (m *Matrix) Mul(other *Matrix) (*Matrix, error) {
	if m.cols != other.rows {
		return nil, fmt.Errorf("linalg: cannot multiply %dx%d by %dx%d", m.rows, m.cols, other.rows, other.cols)
	}
	out := NewMatrix(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			rowK := other.data[k*other.cols : (k+1)*other.cols]
			dst := out.data[i*out.cols : (i+1)*out.cols]
			for j, b := range rowK {
				dst[j] += a * b
			}
		}
	}
	return out, nil
}

// MulVec returns m*v. It returns an error if len(v) != Cols().
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if len(v) != m.cols {
		return nil, fmt.Errorf("linalg: cannot multiply %dx%d by vector of length %d", m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var sum float64
		for j, x := range row {
			sum += x * v[j]
		}
		out[i] = sum
	}
	return out, nil
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// CovarianceWorkers returns the cols x cols population covariance matrix
// of the rows of m (each row is an observation, each column a variable).
// It returns an error if m has fewer than two rows. The column-pair work
// is split across at most workers goroutines (<= 0 means GOMAXPROCS).
// Every (a, b) pair is summed by exactly one worker over the full
// observation range in row order, so the result is bit-identical for
// every worker count. The inner loops run over raw slices: columns are
// centred once into a column-major scratch so each pair reduces to a
// contiguous dot product instead of rows*2 bounds-checked At calls.
func CovarianceWorkers(m *Matrix, workers int) (*Matrix, error) {
	if m.rows < 2 {
		return nil, errors.New("linalg: covariance requires at least 2 observations")
	}
	n, d := m.rows, m.cols
	means := make([]float64, d)
	for i := 0; i < n; i++ {
		row := m.data[i*d : (i+1)*d]
		for j, v := range row {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(n)
	}
	// Centre into column-major scratch: centered[j*n : (j+1)*n] is column j.
	centered := make([]float64, d*n)
	for i := 0; i < n; i++ {
		row := m.data[i*d : (i+1)*d]
		for j, v := range row {
			centered[j*n+i] = v - means[j]
		}
	}
	cov := NewMatrix(d, d)
	parallel.For(parallel.Workers(workers), d, func(a int) {
		ca := centered[a*n : (a+1)*n]
		dst := cov.data[a*d:]
		for b := a; b < d; b++ {
			cb := centered[b*n : (b+1)*n]
			var sum float64
			for i, x := range ca {
				sum += x * cb[i]
			}
			v := sum / float64(n)
			dst[b] = v
			cov.data[b*d+a] = v
		}
	})
	return cov, nil
}
