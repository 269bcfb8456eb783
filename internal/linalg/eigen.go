package linalg

import (
	"errors"
	"math"
	"sort"
)

// EigenResult holds the eigendecomposition of a symmetric matrix.
// Eigenvalues are sorted in descending order and Vectors[k] is the unit
// eigenvector paired with Values[k].
type EigenResult struct {
	Values  []float64   // descending eigenvalues
	Vectors [][]float64 // Vectors[k] is the eigenvector for Values[k]
	Sweeps  int         // Jacobi sweeps run; 0 when the start basis already diagonalised the matrix
}

// jacobiMaxSweeps bounds the number of full Jacobi sweeps. For symmetric
// matrices of the sizes FLARE uses (<= a few hundred), convergence is
// typically reached in well under 20 sweeps.
const jacobiMaxSweeps = 100

// SymmetricEigen computes all eigenvalues and eigenvectors of a symmetric
// matrix using the cyclic Jacobi rotation method. It returns an error if
// the matrix is not symmetric or if the iteration fails to converge
// (which indicates a non-symmetric or pathological input).
//
// start optionally warm-starts the iteration: an orthonormal basis with
// start[k] the k-th basis vector, typically the eigenvectors of a nearby
// matrix. The sweeps then run on start^T m start, accumulating rotations
// onto the basis, so a matrix that moved little since start was computed
// converges in few sweeps (none if start still diagonalises it below the
// stop tolerance). A nil or mis-sized start means the identity, the cold
// solve. start is only read, never written.
func SymmetricEigen(m *Matrix, start [][]float64) (*EigenResult, error) {
	if !m.IsSymmetric(1e-8) {
		return nil, errors.New("linalg: SymmetricEigen requires a symmetric matrix")
	}
	n := m.Rows()
	// vt accumulates rotations with the eigenvectors as its rows, so the
	// per-rotation update and the extraction walk contiguous memory.
	var a, vt *Matrix
	if b, err := FromRows(start); err == nil && b.rows == n && b.cols == n {
		a, vt = changeBasis(m, b), b
	} else {
		a, vt = m.Clone(), Identity(n)
	}

	sweeps := 0
	for ; sweeps < jacobiMaxSweeps; sweeps++ {
		off := offDiagonalNorm(a)
		if off < 1e-12 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				rotate(a, vt, p, q)
			}
		}
	}
	if offDiagonalNorm(a) > 1e-6 {
		return nil, errors.New("linalg: Jacobi iteration did not converge")
	}

	// Sort the eigenpairs by descending eigenvalue.
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	diag := func(k int) float64 { return a.data[k*n+k] }
	sort.SliceStable(order, func(i, j int) bool { return diag(order[i]) > diag(order[j]) })

	out := &EigenResult{
		Values:  make([]float64, n),
		Vectors: make([][]float64, n),
		Sweeps:  sweeps,
	}
	for k, src := range order {
		out.Values[k] = diag(src)
		out.Vectors[k] = canonicalSign(append([]float64(nil), vt.RowView(src)...))
	}
	return out, nil
}

// changeBasis returns b m b^T for a basis b with the basis vectors as
// rows, exactly symmetric (the upper triangle is computed and mirrored).
// Every product is a dot of two contiguous rows: u = b m (m symmetric, so
// row k of u is m b[k]), then entry (k, l) is b[k] . u[l].
func changeBasis(m, b *Matrix) *Matrix {
	n := m.rows
	u := NewMatrix(n, n)
	for k := 0; k < n; k++ {
		bk, uk := b.RowView(k), u.RowView(k)
		for i := range uk {
			uk[i] = dot(m.RowView(i), bk)
		}
	}
	a := NewMatrix(n, n)
	for k := 0; k < n; k++ {
		bk := b.RowView(k)
		for l := k; l < n; l++ {
			x := dot(bk, u.RowView(l))
			a.data[k*n+l] = x
			a.data[l*n+k] = x
		}
	}
	return a
}

// dot returns the inner product of x and y[:len(x)].
func dot(x, y []float64) float64 {
	var s float64
	for i, xi := range x {
		s += xi * y[i]
	}
	return s
}

// rotate applies one Jacobi rotation zeroing a[p][q], updating both the
// working matrix a and the transposed eigenvector accumulator vt (rows
// are eigenvectors) in place. This is the eigensolver's innermost loop,
// so it indexes the row-major backing stores directly instead of going
// through At/Set bounds checks.
func rotate(a, vt *Matrix, p, q int) {
	n := a.rows
	ad := a.data
	apq := ad[p*n+q]
	if math.Abs(apq) < 1e-15 {
		return
	}
	app, aqq := ad[p*n+p], ad[q*n+q]

	theta := (aqq - app) / (2 * apq)
	var t float64
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(1+theta*theta))
	} else {
		t = -1 / (-theta + math.Sqrt(1+theta*theta))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c

	for i := 0; i < n; i++ {
		aip, aiq := ad[i*n+p], ad[i*n+q]
		ad[i*n+p] = c*aip - s*aiq
		ad[i*n+q] = s*aip + c*aiq
	}
	rotateRows(ad[p*n:(p+1)*n], ad[q*n:(q+1)*n], c, s)
	rotateRows(vt.data[p*n:(p+1)*n], vt.data[q*n:(q+1)*n], c, s)
}

// rotateRows replaces rows p and q by (c p - s q) and (s p + c q).
func rotateRows(rowP, rowQ []float64, c, s float64) {
	rowQ = rowQ[:len(rowP)]
	for j, xp := range rowP {
		xq := rowQ[j]
		rowP[j] = c*xp - s*xq
		rowQ[j] = s*xp + c*xq
	}
}

// offDiagonalNorm returns the Frobenius norm of the strictly upper
// triangle of a symmetric matrix, the Jacobi convergence measure.
func offDiagonalNorm(m *Matrix) float64 {
	var sum float64
	n := m.rows
	for i := 0; i < n-1; i++ {
		row := m.data[i*n+i+1 : (i+1)*n]
		for _, x := range row {
			sum += x * x
		}
	}
	return math.Sqrt(sum)
}

// canonicalSign flips an eigenvector so that its largest-magnitude
// component is positive, making decompositions deterministic across runs
// (eigenvectors are only defined up to sign).
func canonicalSign(v []float64) []float64 {
	maxAbs, maxIdx := 0.0, 0
	for i, x := range v {
		if math.Abs(x) > maxAbs {
			maxAbs = math.Abs(x)
			maxIdx = i
		}
	}
	if v[maxIdx] < 0 {
		for i := range v {
			v[i] = -v[i]
		}
	}
	return v
}
