// Package pca implements FLARE's high-level metric construction (paper
// Sec 4.3): standardise the refined metric matrix, extract principal
// components via eigendecomposition of the covariance matrix, select the
// smallest component count explaining a target share of variance
// (Fig 7: 95% -> 18 PCs in the paper), and attribute human-readable
// interpretations to each component from its loadings (Fig 8).
package pca

import (
	"errors"
	"fmt"

	"flare/internal/linalg"
	"flare/internal/stats"
)

// DefaultVarianceTarget is the cumulative explained-variance fraction used
// to choose the component count (the paper's 95%).
const DefaultVarianceTarget = 0.95

// Model is a fitted PCA: standardisation parameters plus the component
// basis, ordered by descending explained variance.
type Model struct {
	// Means and Stds standardise input columns; columns with zero Std are
	// centred only.
	Means []float64
	Stds  []float64

	// Components[k] is the loading vector of PC k over the input columns
	// (unit length, deterministic sign).
	Components [][]float64
	// Explained[k] is the fraction of total variance PC k explains.
	Explained []float64
	// NumPC is the selected component count (smallest k whose cumulative
	// explained variance reaches the target).
	NumPC int
	// Sweeps is the number of Jacobi sweeps the fit's eigensolve ran.
	Sweeps int
}

// FitWorkers computes a PCA of m (observations in rows, metrics in
// columns) and selects components to reach varianceTarget in (0, 1]. The
// covariance computation (the fit's dominant cost) is split across at
// most workers goroutines; <= 0 means GOMAXPROCS. The fitted model is
// bit-identical for every worker count.
func FitWorkers(m *linalg.Matrix, varianceTarget float64, workers int) (*Model, error) {
	if m == nil {
		return nil, errors.New("pca: nil matrix")
	}
	if varianceTarget <= 0 || varianceTarget > 1 {
		return nil, fmt.Errorf("pca: variance target %v outside (0, 1]", varianceTarget)
	}
	if m.Rows() < 2 {
		return nil, errors.New("pca: need at least 2 observations")
	}

	rows, cols := m.Rows(), m.Cols()
	mod := &Model{
		Means: make([]float64, cols),
		Stds:  make([]float64, cols),
	}
	// Standardise straight into z's rows: per-column mean/std once (on a
	// reused column buffer), then one row-major fill — no per-element
	// At/Set and no per-column result allocation (stats.Standardize's
	// zero-std centring convention is preserved).
	z := linalg.NewMatrix(rows, cols)
	col := make([]float64, rows)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			col[i] = m.RowView(i)[j]
		}
		mod.Means[j] = stats.Mean(col)
		if std := stats.StdDev(col); std >= 1e-12 {
			mod.Stds[j] = std
		}
	}
	for i := 0; i < rows; i++ {
		src, dst := m.RowView(i), z.RowView(i)
		for j, v := range src {
			if std := mod.Stds[j]; std > 0 {
				dst[j] = (v - mod.Means[j]) / std
			} else {
				dst[j] = v - mod.Means[j]
			}
		}
	}

	cov, err := linalg.CovarianceWorkers(z, workers)
	if err != nil {
		return nil, fmt.Errorf("pca: %w", err)
	}
	if err := mod.finish(cov, varianceTarget, nil); err != nil {
		return nil, err
	}
	return mod, nil
}

// FitFromMoments fits a PCA from running raw moments instead of a data
// matrix: the eigendecomposition runs on the correlation matrix derived
// from the accumulator, which equals the covariance of the standardised
// data FitWorkers builds (population normalisation throughout). The
// incremental analyzer uses it to turn a profiler tick into an O(d^2)
// moment update plus an eigensolve, with no pass over history.
//
// A non-nil prev warm-starts the eigensolve from prev.Components (which
// are only read): one O(d^3) change of basis, then only the Jacobi sweeps
// the moved correlation matrix still needs — none when the tick left it
// diagonal in the old basis. Agreement with FitWorkers on the same
// observations is within ordinary floating-point accumulation error
// (~1e-9, pinned by tests), not byte-exact, with or without prev.
func FitFromMoments(rc *linalg.RunningCov, varianceTarget float64, prev *Model) (*Model, error) {
	if rc == nil {
		return nil, errors.New("pca: nil moment accumulator")
	}
	if varianceTarget <= 0 || varianceTarget > 1 {
		return nil, fmt.Errorf("pca: variance target %v outside (0, 1]", varianceTarget)
	}
	if rc.N() < 2 {
		return nil, errors.New("pca: need at least 2 observations")
	}
	// The 1e-12 epsilon matches FitWorkers' zero-std centring convention.
	corr, stds, err := rc.Correlation(1e-12)
	if err != nil {
		return nil, fmt.Errorf("pca: %w", err)
	}
	var start [][]float64
	if prev != nil {
		start = prev.Components
	}
	mod := &Model{Means: rc.Mean(), Stds: stds}
	if err := mod.finish(corr, varianceTarget, start); err != nil {
		return nil, err
	}
	return mod, nil
}

// finish eigendecomposes the covariance of the standardised data (from
// the start basis, if any; see linalg.SymmetricEigen) and fills the
// component basis, explained-variance shares, and the selected component
// count.
func (mod *Model) finish(cov *linalg.Matrix, varianceTarget float64, start [][]float64) error {
	eig, err := linalg.SymmetricEigen(cov, start)
	if err != nil {
		return fmt.Errorf("pca: %w", err)
	}

	var total float64
	for _, v := range eig.Values {
		if v > 0 {
			total += v
		}
	}
	if total <= 0 {
		return errors.New("pca: input has zero total variance")
	}

	mod.Components = eig.Vectors
	mod.Sweeps = eig.Sweeps
	mod.Explained = make([]float64, len(eig.Values))
	for k, v := range eig.Values {
		if v > 0 {
			mod.Explained[k] = v / total
		}
	}

	cum := 0.0
	mod.NumPC = len(mod.Explained)
	for k, e := range mod.Explained {
		cum += e
		if cum >= varianceTarget {
			mod.NumPC = k + 1
			break
		}
	}
	return nil
}

// Transform projects observations (rows of m, in the original metric
// space) onto the selected principal components, returning a
// rows x NumPC matrix of PC scores.
func (mod *Model) Transform(m *linalg.Matrix) (*linalg.Matrix, error) {
	if m.Cols() != len(mod.Means) {
		return nil, fmt.Errorf("pca: input has %d columns, model was fitted on %d", m.Cols(), len(mod.Means))
	}
	out := linalg.NewMatrix(m.Rows(), mod.NumPC)
	row := make([]float64, m.Cols())
	for i := 0; i < m.Rows(); i++ {
		src := m.RowView(i)
		for j, v := range src {
			v -= mod.Means[j]
			if mod.Stds[j] > 0 {
				v /= mod.Stds[j]
			}
			row[j] = v
		}
		dst := out.RowView(i)
		for k := 0; k < mod.NumPC; k++ {
			var score float64
			comp := mod.Components[k]
			for j, v := range row {
				score += v * comp[j]
			}
			dst[k] = score
		}
	}
	return out, nil
}

// CumulativeExplained returns the running sum of explained variance, one
// entry per component (Fig 7's curve).
func (mod *Model) CumulativeExplained() []float64 {
	out := make([]float64, len(mod.Explained))
	var cum float64
	for k, e := range mod.Explained {
		cum += e
		out[k] = cum
	}
	return out
}
