// Package analyzer implements FLARE's Analyzer: the pipeline from a
// profiled metric matrix to representative colocation scenarios (paper
// Sec 4.3-4.4):
//
//  1. refine the raw metrics by correlation pruning,
//  2. construct high-level metrics with PCA (95% variance -> ~18 PCs),
//  3. whiten the PC scores and cluster them with k-means,
//  4. extract each cluster's representative: the scenario nearest its
//     centroid, weighted by cluster size.
package analyzer

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"flare/internal/hcluster"
	"flare/internal/kmeans"
	"flare/internal/linalg"
	"flare/internal/mathx"
	"flare/internal/obs"
	"flare/internal/parallel"
	"flare/internal/pca"
	"flare/internal/profiler"
	"flare/internal/refine"
	"flare/internal/stats"
)

// Method selects the clustering algorithm.
type Method int

// Clustering methods.
const (
	// MethodKMeans is the paper's choice: k-means++ seeded Lloyd.
	MethodKMeans Method = iota + 1
	// MethodHierarchical is the paper's stated alternative: agglomerative
	// Ward-linkage clustering cut at the requested cluster count.
	MethodHierarchical
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodKMeans:
		return "kmeans"
	case MethodHierarchical:
		return "hierarchical"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options controls the analysis.
type Options struct {
	// VarianceTarget for PC selection; <= 0 means pca.DefaultVarianceTarget.
	VarianceTarget float64
	// Clusters fixes the cluster count; 0 selects it from a sweep knee.
	Clusters int
	// SweepMin/SweepMax bound the automatic cluster-count sweep; defaults
	// 4 and 40.
	SweepMin, SweepMax int
	// SkipWhiten disables the whitening of PC scores before clustering
	// (exists for the ablation study; the paper whitens).
	SkipWhiten bool
	// SkipRefine disables correlation pruning (ablation; the paper prunes).
	SkipRefine bool
	// Seed drives clustering randomness; every value, 0 included, is
	// valid.
	Seed int64
	// Workers bounds the analysis fan-out (concurrent sweep ks, k-means
	// restarts, covariance column blocks); <= 0 means GOMAXPROCS. The
	// output is byte-identical for every Workers setting (see DESIGN.md
	// "Parallelism & determinism").
	Workers int
	// Method selects the clustering algorithm; the zero value means
	// MethodKMeans (the paper's choice).
	Method Method
	// PerJobMetrics appends per-job descriptor columns (per-instance MIPS
	// and instance count of each listed job) to the metric matrix before
	// refinement. The paper suggests this to sharpen *per-job* estimation
	// but warns that excessive per-job metrics inflate the feature space
	// and can deteriorate clustering quality (Sec 5.3) — hence opt-in.
	PerJobMetrics []string
}

// DefaultOptions returns the paper's settings.
func DefaultOptions() Options {
	return Options{
		VarianceTarget: pca.DefaultVarianceTarget,
		Clusters:       0, // sweep
		SweepMin:       4,
		SweepMax:       40,
		Seed:           1,
	}
}

// Representative is one cluster's stand-in scenario.
type Representative struct {
	Cluster    int
	ScenarioID int
	// Weight is the cluster's share of the scenario population; weights
	// sum to 1 across representatives.
	Weight float64
	// Ranked lists the cluster's scenario IDs by ascending distance to
	// the centroid; Ranked[0] == ScenarioID. Used by per-job estimation
	// to fall back to the next-nearest scenario containing a job.
	Ranked []int
}

// Analysis is the Analyzer's output.
type Analysis struct {
	Dataset *profiler.Dataset

	Refined      *refine.Result
	RefinedNames []string

	PCA    *pca.Model
	Labels []pca.Label

	// Scores holds the (optionally whitened) PC scores, scenarios in rows.
	Scores *linalg.Matrix
	// WhitenScales holds the per-PC standard deviations the scores were
	// divided by (all 1 when whitening was skipped), so new observations
	// can be projected into the same space (drift detection).
	WhitenScales []float64

	Clustering      *kmeans.Result
	Sweep           []kmeans.SweepPoint // nil when Clusters was fixed
	Representatives []Representative

	// AugmentedCols counts per-job descriptor columns appended to the
	// metric matrix (0 when Options.PerJobMetrics was empty). Consumers
	// that project new raw catalog vectors through the analysis (drift
	// detection) must reject augmented analyses.
	AugmentedCols int
}

// AnalyzeContext runs the full Analyzer pipeline on a profiled dataset.
// Each stage (refine, PCA, projection, cluster sweep, clustering,
// representative extraction) records its own sub-span under the tracer
// in ctx, with the quantities the paper reports — metric counts, PC
// count, k, Lloyd iterations.
func AnalyzeContext(ctx context.Context, ds *profiler.Dataset, opts Options) (*Analysis, error) {
	if ds == nil || ds.Matrix == nil {
		return nil, errors.New("analyzer: nil dataset")
	}
	if opts.VarianceTarget <= 0 {
		opts.VarianceTarget = pca.DefaultVarianceTarget
	}
	if opts.SweepMin < 2 {
		opts.SweepMin = 4
	}
	if opts.SweepMax < opts.SweepMin {
		opts.SweepMax = opts.SweepMin + 36
	}

	an := &Analysis{Dataset: ds}

	// Optional per-job augmentation (Sec 5.3).
	matrix := ds.Matrix
	names := ds.Catalog.Names()
	if len(opts.PerJobMetrics) > 0 {
		var err error
		matrix, names, err = augmentPerJob(ds, opts.PerJobMetrics)
		if err != nil {
			return nil, fmt.Errorf("analyzer: per-job augmentation: %w", err)
		}
		an.AugmentedCols = matrix.Cols() - ds.Matrix.Cols()
	}

	// Step 1b: refinement.
	if opts.SkipRefine {
		an.RefinedNames = names
	} else {
		_, rspan := obs.StartSpan(ctx, "analyze.refine")
		rspan.SetAttr("raw_metrics", len(names))
		ref, err := refine.Refine(matrix, names, refine.DefaultThreshold)
		if err != nil {
			rspan.End()
			return nil, fmt.Errorf("analyzer: refinement: %w", err)
		}
		matrix, err = ref.Apply(matrix)
		if err != nil {
			rspan.End()
			return nil, fmt.Errorf("analyzer: refinement: %w", err)
		}
		an.Refined = ref
		an.RefinedNames = ref.Names
		rspan.SetAttr("refined_metrics", len(ref.Names))
		rspan.End()
	}

	workers := parallel.Workers(opts.Workers)

	// Step 2: high-level metric construction.
	_, pspan := obs.StartSpan(ctx, "analyze.pca")
	pspan.SetAttr("workers", workers)
	model, err := pca.FitWorkers(matrix, opts.VarianceTarget, workers)
	if err != nil {
		pspan.End()
		return nil, fmt.Errorf("analyzer: PCA: %w", err)
	}
	an.PCA = model
	pspan.SetAttr("principal_components", model.NumPC)
	labels, err := pca.LabelComponents(model, an.RefinedNames, ds.Catalog, 6)
	if err != nil {
		pspan.End()
		return nil, fmt.Errorf("analyzer: labelling: %w", err)
	}
	an.Labels = labels
	pspan.End()

	_, jspan := obs.StartSpan(ctx, "analyze.project")
	scores, err := model.Transform(matrix)
	if err != nil {
		jspan.End()
		return nil, fmt.Errorf("analyzer: projection: %w", err)
	}
	an.WhitenScales = make([]float64, scores.Cols())
	for j := range an.WhitenScales {
		an.WhitenScales[j] = 1
	}
	if !opts.SkipWhiten {
		scores, an.WhitenScales = whiten(scores)
	}
	an.Scores = scores
	jspan.SetAttr("whitened", !opts.SkipWhiten)
	jspan.End()

	// Step 3: clustering. The kmeans options carry the base seed for the
	// derived per-restart/per-k substreams.
	kopts := kmeans.Options{Seed: opts.Seed, Workers: workers}
	k := opts.Clusters
	if k <= 0 {
		_, sspan := obs.StartSpan(ctx, "analyze.sweep")
		sweepMax := opts.SweepMax
		if sweepMax > scores.Rows() {
			sweepMax = scores.Rows()
		}
		sspan.SetAttr("k_min", opts.SweepMin)
		sspan.SetAttr("k_max", sweepMax)
		sspan.SetAttr("workers", workers)
		sweep, err := kmeans.Sweep(scores, opts.SweepMin, sweepMax, kopts)
		if err != nil {
			sspan.End()
			return nil, fmt.Errorf("analyzer: cluster sweep: %w", err)
		}
		an.Sweep = sweep
		k, err = kmeans.KneeK(sweep, 0.12)
		if err != nil {
			sspan.End()
			return nil, fmt.Errorf("analyzer: knee selection: %w", err)
		}
		sspan.SetAttr("knee_k", k)
		sspan.End()
	}
	method := opts.Method
	if method == 0 {
		method = MethodKMeans
	}
	_, cspan := obs.StartSpan(ctx, "analyze."+method.String())
	cspan.SetAttr("k", k)
	cspan.SetAttr("scenarios", scores.Rows())
	cspan.SetAttr("workers", workers)
	clustering, err := cluster(scores, k, method, kopts)
	if err != nil {
		cspan.End()
		return nil, fmt.Errorf("analyzer: clustering: %w", err)
	}
	an.Clustering = clustering
	cspan.SetAttr("iterations", clustering.Iters)
	cspan.SetAttr("sse", clustering.SSE)
	cspan.End()

	// Step 4: representative extraction.
	_, xspan := obs.StartSpan(ctx, "analyze.representatives")
	an.Representatives = extractRepresentatives(scores, clustering)
	xspan.SetAttr("representatives", len(an.Representatives))
	xspan.End()
	return an, nil
}

// augmentPerJob appends two descriptor columns per listed job: the job's
// measured per-instance MIPS in each scenario (0 when absent) and its
// instance count.
func augmentPerJob(ds *profiler.Dataset, jobs []string) (*linalg.Matrix, []string, error) {
	base := ds.Matrix
	out := linalg.NewMatrix(base.Rows(), base.Cols()+2*len(jobs))
	for i := 0; i < base.Rows(); i++ {
		for j := 0; j < base.Cols(); j++ {
			out.Set(i, j, base.At(i, j))
		}
	}
	names := append([]string{}, ds.Catalog.Names()...)
	for k, job := range jobs {
		if job == "" {
			return nil, nil, errors.New("analyzer: empty per-job metric name")
		}
		mipsCol := base.Cols() + 2*k
		instCol := mipsCol + 1
		seen := false
		for id := 0; id < base.Rows(); id++ {
			sc, err := ds.Scenarios.Get(id)
			if err != nil {
				return nil, nil, err
			}
			if n := sc.Instances(job); n > 0 {
				seen = true
				out.Set(id, mipsCol, ds.JobMIPS[id][job])
				out.Set(id, instCol, float64(n))
			}
		}
		if !seen {
			return nil, nil, fmt.Errorf("analyzer: per-job metric %q appears in no scenario", job)
		}
		names = append(names, "PerJob-MIPS-"+job, "PerJob-Instances-"+job)
	}
	return out, names, nil
}

// cluster dispatches to the selected clustering method, normalising the
// result to the kmeans.Result shape the rest of the pipeline consumes.
func cluster(scores *linalg.Matrix, k int, method Method, kopts kmeans.Options) (*kmeans.Result, error) {
	switch method {
	case MethodHierarchical:
		h, err := hcluster.Cluster(scores, k, hcluster.Ward)
		if err != nil {
			return nil, err
		}
		cents := h.Centroids(scores)
		res := &kmeans.Result{
			K:         len(h.Sizes),
			Labels:    h.Labels,
			Sizes:     h.Sizes,
			SSE:       h.SSE(scores),
			Centroids: make([]mathx.Vector, len(cents)),
		}
		for c, cent := range cents {
			res.Centroids[c] = cent
		}
		return res, nil
	default:
		return kmeans.Cluster(scores, k, kopts)
	}
}

// whiten rescales each column to unit variance (columns are already
// zero-mean PC scores), so every high-level metric carries equal weight
// in the clustering distance. It returns the per-column scales applied.
func whiten(scores *linalg.Matrix) (*linalg.Matrix, []float64) {
	out := linalg.NewMatrix(scores.Rows(), scores.Cols())
	scales := make([]float64, scores.Cols())
	for j := 0; j < scores.Cols(); j++ {
		col := scores.Col(j)
		std := stats.StdDev(col)
		scales[j] = std
		if std <= 1e-12 {
			scales[j] = 1
			continue // column stays zero
		}
		for i, v := range col {
			out.Set(i, j, v/std)
		}
	}
	return out, scales
}

// extractRepresentatives ranks each cluster's members by distance to the
// centroid and takes the nearest as representative, weighting by cluster
// size. Each member's distance is computed once up front (on row views,
// no copies) rather than inside the sort comparator.
func extractRepresentatives(scores *linalg.Matrix, cl *kmeans.Result) []Representative {
	n := scores.Rows()
	members := make([][]int, cl.K)
	for id, lbl := range cl.Labels {
		members[lbl] = append(members[lbl], id)
	}
	dist := make([]float64, n)
	out := make([]Representative, 0, cl.K)
	for c := 0; c < cl.K; c++ {
		if len(members[c]) == 0 {
			continue
		}
		centroid := cl.Centroids[c]
		for _, id := range members[c] {
			dist[id] = mathx.Vector(scores.RowView(id)).DistanceSq(centroid)
		}
		sort.SliceStable(members[c], func(a, b int) bool {
			da, db := dist[members[c][a]], dist[members[c][b]]
			if da != db {
				return da < db
			}
			return members[c][a] < members[c][b]
		})
		out = append(out, Representative{
			Cluster:    c,
			ScenarioID: members[c][0],
			Weight:     float64(len(members[c])) / float64(n),
			Ranked:     members[c],
		})
	}
	return out
}

// ClusterCenterPCs returns cluster c's centroid expressed in the selected
// PC dimensions (the radar axes of Fig 10).
func (an *Analysis) ClusterCenterPCs(c int) ([]float64, error) {
	if an.Clustering == nil || c < 0 || c >= an.Clustering.K {
		return nil, fmt.Errorf("analyzer: cluster %d out of range", c)
	}
	return an.Clustering.Centroids[c].Clone(), nil
}
