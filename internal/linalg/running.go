package linalg

import (
	"fmt"
	"math"
)

// RunningCov maintains the mean vector and covariance matrix of a set of
// d-dimensional observations under streaming updates: adding a new
// observation, removing one, or replacing one costs O(d^2) instead of the
// O(n*d^2) full recompute. It is the moment store behind FLARE's
// incremental analysis: on a profiler tick only the changed scenarios'
// rows are folded in, so re-fitting the PCA is O(delta), not O(history).
//
// The accumulator is the multivariate Welford recurrence: for each new
// observation x,
//
//	mean' = mean + (x - mean)/n
//	M2'   = M2 + (x - mean) (x - mean')^T
//
// where (x - mean') is parallel to (x - mean), so the rank-1 update is
// symmetric and M2 stays an exact sum of centred outer products.
// Removal applies the same recurrence in reverse. Both directions are
// numerically stable for the matrix sizes FLARE sees (hundreds of rows,
// ~100 columns); the incremental PCA tests pin the agreement with the
// batch covariance at ~1e-9.
type RunningCov struct {
	d    int
	n    int
	mean []float64
	m2   []float64 // d x d row-major sum of centred outer products
	dx   []float64 // scratch: x - mean before the mean update
}

// NewRunningCov returns an empty accumulator over d-dimensional
// observations. It panics on a non-positive dimension.
func NewRunningCov(d int) *RunningCov {
	if d <= 0 {
		panic(fmt.Sprintf("linalg: RunningCov dimension %d, want positive", d))
	}
	return &RunningCov{
		d:    d,
		mean: make([]float64, d),
		m2:   make([]float64, d*d),
		dx:   make([]float64, d),
	}
}

// RunningCovFromMatrix bulk-initialises an accumulator from the rows of m
// (each row one observation).
func RunningCovFromMatrix(m *Matrix) *RunningCov {
	rc := NewRunningCov(m.Cols())
	for i := 0; i < m.Rows(); i++ {
		rc.Add(m.RowView(i))
	}
	return rc
}

// N returns the number of observations currently folded in.
func (rc *RunningCov) N() int { return rc.n }

// Dim returns the observation dimension.
func (rc *RunningCov) Dim() int { return rc.d }

func (rc *RunningCov) checkDim(x []float64) {
	if len(x) != rc.d {
		panic(fmt.Sprintf("linalg: RunningCov observation has %d dims, want %d", len(x), rc.d))
	}
}

// Add folds one observation into the moments.
func (rc *RunningCov) Add(x []float64) {
	rc.checkDim(x)
	rc.n++
	inv := 1 / float64(rc.n)
	dx := rc.dx
	for j, v := range x {
		dx[j] = v - rc.mean[j]
		rc.mean[j] += dx[j] * inv
	}
	// M2 += dx (x - mean')^T = dx dx^T * (n-1)/n, a symmetric rank-1 update.
	scale := float64(rc.n-1) * inv
	rc.rank1(dx, scale)
}

// Remove un-folds an observation previously added. It panics when the
// accumulator is empty; removing a vector that was never added silently
// corrupts the moments, which is the caller's contract to uphold.
func (rc *RunningCov) Remove(x []float64) {
	rc.checkDim(x)
	if rc.n == 0 {
		panic("linalg: RunningCov.Remove on empty accumulator")
	}
	if rc.n == 1 {
		rc.n = 0
		clear(rc.mean)
		clear(rc.m2)
		return
	}
	// Reverse of Add: with mean the current (n-point) mean and mean' the
	// mean after removal, M2' = M2 - (x - mean') (x - mean)^T, and
	// (x - mean') = (x - mean) * n/(n-1) keeps the update symmetric.
	n := rc.n
	rc.n--
	inv := 1 / float64(rc.n)
	dx := rc.dx
	for j, v := range x {
		d := v - rc.mean[j]
		rc.mean[j] -= d * inv
		dx[j] = d
	}
	scale := -float64(n) * inv
	rc.rank1(dx, scale)
}

// Replace swaps one observation for another in a single call, the shape
// of a profiler tick re-measuring an existing scenario.
func (rc *RunningCov) Replace(old, new []float64) {
	rc.Remove(old)
	rc.Add(new)
}

// rank1 applies m2 += scale * v v^T, mirroring the strict upper triangle
// so the matrix stays exactly symmetric under floating point.
func (rc *RunningCov) rank1(v []float64, scale float64) {
	d := rc.d
	for i := 0; i < d; i++ {
		vi := v[i] * scale
		if vi == 0 {
			continue
		}
		row := rc.m2[i*d:]
		for j := i; j < d; j++ {
			row[j] += vi * v[j]
		}
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			rc.m2[j*d+i] = rc.m2[i*d+j]
		}
	}
}

// Mean returns a copy of the current mean vector.
func (rc *RunningCov) Mean() []float64 {
	out := make([]float64, rc.d)
	copy(out, rc.mean)
	return out
}

// Cov returns the population covariance matrix (normalised by n, the
// convention CovarianceWorkers and the PCA standardisation use). It returns an
// error with fewer than two observations.
func (rc *RunningCov) Cov() (*Matrix, error) {
	if rc.n < 2 {
		return nil, fmt.Errorf("linalg: RunningCov has %d observations, covariance requires at least 2", rc.n)
	}
	out := NewMatrix(rc.d, rc.d)
	inv := 1 / float64(rc.n)
	for i, v := range rc.m2 {
		out.data[i] = v * inv
	}
	return out, nil
}

// Correlation returns the correlation matrix: the covariance of the
// standardised observations, which is exactly what a PCA over
// standardised columns eigendecomposes. Columns whose standard deviation
// falls below eps are treated as constant: they keep their raw
// covariances (all zero in exact arithmetic, matching the PCA's
// centre-only convention for zero-variance columns).
func (rc *RunningCov) Correlation(eps float64) (*Matrix, []float64, error) {
	cov, err := rc.Cov()
	if err != nil {
		return nil, nil, err
	}
	d := rc.d
	stds := make([]float64, d)
	scale := make([]float64, d)
	for j := 0; j < d; j++ {
		std := math.Sqrt(cov.data[j*d+j])
		scale[j] = 1
		if std >= eps {
			stds[j] = std
			scale[j] = 1 / std
		}
	}
	for i := 0; i < d; i++ {
		row := cov.data[i*d : (i+1)*d]
		si := scale[i]
		for j := range row {
			row[j] *= si * scale[j]
		}
	}
	return cov, stds, nil
}
