package analyzer

import (
	"context"
	"errors"
	"fmt"

	"flare/internal/kmeans"
	"flare/internal/linalg"
	"flare/internal/mathx"
	"flare/internal/obs"
	"flare/internal/pca"
)

// Incremental maintains an Analysis under profiler ticks so that
// re-analysing after a small set of scenarios changed costs O(delta), not
// O(history):
//
//   - the metric refinement (column selection) is frozen at the last full
//     build, so a tick only re-projects the touched rows;
//   - the PCA is re-fit from a running mean/covariance accumulator
//     (linalg.RunningCov) updated with rank-1 Replace/Add operations;
//   - the clustering is folded forward with mini-batch k-means
//     (kmeans.Fold) seeded from the previous centroids, with the cluster
//     count frozen at the last full build.
//
// Two conditions force a deterministic fall back to the full batch
// AnalyzeContext, whose output is byte-identical to analysing the ticked
// dataset from scratch: the selected component count changing (the
// incremental projection spaces are no longer comparable), and the
// caller-observed drift signal (internal/drift, wired by core.Pipeline,
// which watches the frozen analysis from the outside to keep the
// analyzer <- drift dependency acyclic).
//
// A tick builds a new Analysis rather than edit the current one.
// Incremental is not safe for concurrent use; callers serialise ticks.
type Incremental struct {
	an   *Analysis
	opts Options

	refined *linalg.Matrix     // frozen-refinement projection of the dataset
	rc      *linalg.RunningCov // running moments over refined columns
	rowBuf  []float64          // scratch: one refined row

	ticks    int
	rebuilds int
}

// NewIncremental wraps a completed batch analysis for incremental ticks.
// Analyses with per-job augmented columns are rejected: their extra
// columns are derived from scenario contents, not the metric catalog, so
// frozen-refinement row projection is undefined for them.
func NewIncremental(an *Analysis, opts Options) (*Incremental, error) {
	if an == nil || an.Clustering == nil || an.PCA == nil {
		return nil, errors.New("analyzer: incremental requires a completed analysis")
	}
	if an.AugmentedCols > 0 {
		return nil, errors.New("analyzer: incremental analysis does not support per-job augmented columns")
	}
	if opts.VarianceTarget <= 0 {
		opts.VarianceTarget = pca.DefaultVarianceTarget
	}
	inc := &Incremental{an: an, opts: opts}
	inc.reproject()
	return inc, nil
}

// Analysis returns the current analysis. The pointer changes on every
// tick; callers should re-read it after each.
func (inc *Incremental) Analysis() *Analysis { return inc.an }

// Ticks returns the number of incremental (non-rebuild) ticks applied.
func (inc *Incremental) Ticks() int { return inc.ticks }

// Rebuilds returns the number of full batch rebuilds performed.
func (inc *Incremental) Rebuilds() int { return inc.rebuilds }

// reproject rebuilds the frozen-refinement matrix and its running
// moments from the current dataset and analysis.
func (inc *Incremental) reproject() {
	ds := inc.an.Dataset
	n := ds.Matrix.Rows()
	d := ds.Matrix.Cols()
	if inc.an.Refined != nil {
		d = len(inc.an.Refined.Kept)
	}
	inc.refined = linalg.NewMatrix(n, d)
	inc.rowBuf = make([]float64, d)
	for id := 0; id < n; id++ {
		inc.refineRow(id, inc.refined.RowView(id))
	}
	inc.rc = linalg.RunningCovFromMatrix(inc.refined)
}

// refineRow projects dataset row id through the frozen refinement.
func (inc *Incremental) refineRow(id int, dst []float64) {
	src := inc.an.Dataset.Matrix.RowView(id)
	if inc.an.Refined == nil {
		copy(dst, src)
		return
	}
	for i, j := range inc.an.Refined.Kept {
		dst[i] = src[j]
	}
}

// TickContext folds the touched scenario rows (changed or appended by a
// profiler tick, ascending IDs) into the analysis. It reports whether the
// tick fell back to a full batch rebuild.
func (inc *Incremental) TickContext(ctx context.Context, touched []int) (rebuilt bool, err error) {
	_, span := obs.StartSpan(ctx, "analyze.tick")
	defer span.End()
	span.SetAttr("touched", len(touched))

	ds := inc.an.Dataset
	n := ds.Matrix.Rows()
	for _, id := range touched {
		if id < 0 || id >= n {
			return false, fmt.Errorf("analyzer: touched scenario %d out of range [0, %d)", id, n)
		}
	}

	// Fold the touched rows into the running moments and the frozen-
	// refinement matrix. New rows must extend the population contiguously.
	for _, id := range touched {
		if id >= inc.refined.Rows() {
			inc.refined.GrowRows(id - inc.refined.Rows() + 1)
		}
		row := inc.refined.RowView(id)
		if id < inc.rc.N() {
			old := inc.rowBuf
			copy(old, row)
			inc.refineRow(id, row)
			inc.rc.Replace(old, row)
		} else {
			inc.refineRow(id, row)
			inc.rc.Add(row)
		}
	}

	model, err := pca.FitFromMoments(inc.rc, inc.opts.VarianceTarget)
	if err != nil {
		return false, fmt.Errorf("analyzer: incremental PCA: %w", err)
	}
	if model.NumPC != inc.an.PCA.NumPC {
		span.SetAttr("rebuild", "numpc_changed")
		if err := inc.RebuildContext(ctx); err != nil {
			return false, err
		}
		return true, nil
	}

	labels, err := pca.LabelComponents(model, inc.an.RefinedNames, ds.Catalog, 6)
	if err != nil {
		return false, fmt.Errorf("analyzer: incremental labelling: %w", err)
	}
	scores, err := model.Transform(inc.refined)
	if err != nil {
		return false, fmt.Errorf("analyzer: incremental projection: %w", err)
	}
	scales := make([]float64, scores.Cols())
	for j := range scales {
		scales[j] = 1
	}
	if !inc.opts.SkipWhiten {
		scores, scales = whiten(scores)
	}

	points := make([]mathx.Vector, scores.Rows())
	for i := range points {
		points[i] = scores.RowView(i)
	}
	clustering, err := kmeans.Fold(inc.an.Clustering, points, touched)
	if err != nil {
		return false, fmt.Errorf("analyzer: incremental clustering: %w", err)
	}

	next := *inc.an
	next.PCA = model
	next.Labels = labels
	next.Scores = scores
	next.WhitenScales = scales
	next.Clustering = clustering
	next.Representatives = extractRepresentatives(scores, clustering)
	inc.an = &next
	inc.ticks++
	span.SetAttr("clusters", clustering.K)
	return false, nil
}

// RebuildContext re-runs the full batch analysis over the current
// dataset — the deterministic fallback when the incremental approximation
// is no longer trustworthy (drift, component-count change). The resulting
// analysis is byte-identical to AnalyzeContext on the same dataset and
// options.
func (inc *Incremental) RebuildContext(ctx context.Context) error {
	an, err := AnalyzeContext(ctx, inc.an.Dataset, inc.opts)
	if err != nil {
		return fmt.Errorf("analyzer: incremental rebuild: %w", err)
	}
	inc.an = an
	inc.reproject()
	inc.rebuilds++
	return nil
}
