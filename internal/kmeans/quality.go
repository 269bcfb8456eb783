package kmeans

import (
	"errors"
	"fmt"

	"flare/internal/linalg"
	"flare/internal/mathx"
	"flare/internal/parallel"
)

// maxCachePoints bounds the O(n^2) pairwise-distance cache Sweep shares
// across its per-k silhouette calls: n = 8192 costs 512 MiB transient,
// which is the most the sweep should ever pin. Beyond that every k falls
// back to recomputing distances on the fly (still correct, just slower).
const maxCachePoints = 8192

// distCache is a full n x n matrix of pairwise Euclidean distances,
// computed once per Sweep and shared read-only by every per-k
// Silhouette pass. Rows are filled independently (one writer per row),
// so parallel construction is deterministic.
type distCache struct {
	n int
	d []float64 // d[i*n+j] = distance(points[i], points[j])
}

func newDistCache(points []mathx.Vector, workers int) *distCache {
	n := len(points)
	dc := &distCache{n: n, d: make([]float64, n*n)}
	parallel.For(workers, n, func(i int) {
		row := dc.d[i*n : (i+1)*n]
		p := points[i]
		for j, q := range points {
			row[j] = p.Distance(q)
		}
	})
	return dc
}

// Silhouette computes the mean silhouette score of a clustering in
// [-1, 1]: for each point, (b-a)/max(a,b) where a is the mean distance to
// its own cluster and b the mean distance to the nearest other cluster.
// Points in singleton clusters score 0 by convention. It returns an error
// when the clustering has fewer than 2 clusters (the score is undefined).
func Silhouette(m *linalg.Matrix, labels []int, k int) (float64, error) {
	if m == nil {
		return 0, errors.New("kmeans: nil matrix")
	}
	if len(labels) != m.Rows() {
		return 0, fmt.Errorf("kmeans: %d labels for %d observations", len(labels), m.Rows())
	}
	sizes, err := clusterSizes(labels, k)
	if err != nil {
		return 0, err
	}
	return silhouetteDirect(rowViews(m), labels, sizes, k), nil
}

func clusterSizes(labels []int, k int) ([]int, error) {
	if k < 2 {
		return nil, errors.New("kmeans: silhouette needs at least 2 clusters")
	}
	sizes := make([]int, k)
	for _, l := range labels {
		if l < 0 || l >= k {
			return nil, fmt.Errorf("kmeans: label %d outside [0, %d)", l, k)
		}
		sizes[l]++
	}
	return sizes, nil
}

// silhouetteDirect computes the score with on-the-fly distances, used by
// the public Silhouette and by Sweep when the point count exceeds the
// cache budget.
func silhouetteDirect(points []mathx.Vector, labels, sizes []int, k int) float64 {
	sumDist := make([]float64, k)
	var total float64
	for i, p := range points {
		for c := range sumDist {
			sumDist[c] = 0
		}
		for j, q := range points {
			if i == j {
				continue
			}
			sumDist[labels[j]] += p.Distance(q)
		}
		total += silhouetteOf(i, labels, sizes, sumDist, k)
	}
	return total / float64(len(points))
}

// silhouetteFromCache is the sweep's single pass over the shared distance
// cache: per point, one walk of its cache row accumulating per-cluster
// label sums, then the usual (b-a)/max(a,b).
func silhouetteFromCache(dc *distCache, labels, sizes []int, k int) float64 {
	sumDist := make([]float64, k)
	var total float64
	for i := 0; i < dc.n; i++ {
		for c := range sumDist {
			sumDist[c] = 0
		}
		row := dc.d[i*dc.n : (i+1)*dc.n]
		for j, dist := range row {
			if i == j {
				continue
			}
			sumDist[labels[j]] += dist
		}
		total += silhouetteOf(i, labels, sizes, sumDist, k)
	}
	return total / float64(dc.n)
}

// silhouetteOf scores one point from its per-cluster distance sums.
func silhouetteOf(i int, labels, sizes []int, sumDist []float64, k int) float64 {
	own := labels[i]
	if sizes[own] <= 1 {
		return 0 // convention: silhouette 0 for singletons
	}
	a := sumDist[own] / float64(sizes[own]-1)
	b := -1.0
	for c := 0; c < k; c++ {
		if c == own || sizes[c] == 0 {
			continue
		}
		mean := sumDist[c] / float64(sizes[c])
		if b < 0 || mean < b {
			b = mean
		}
	}
	if b < 0 {
		return 0 // no other non-empty cluster
	}
	if denom := max(a, b); denom > 0 {
		return (b - a) / denom
	}
	return 0
}

// SweepPoint is one entry of a cluster-count sweep (Fig 9).
type SweepPoint struct {
	K          int
	SSE        float64
	Silhouette float64
}

// Sweep clusters m for every k in [kMin, kMax] and reports SSE and
// silhouette per k, the data behind the paper's Figure 9. The ks run
// concurrently on the Options.Workers pool, each on a seed substream
// derived from the base seed and k, and all per-k silhouettes share one
// O(n^2) pairwise-distance cache computed up front instead of
// recomputing it per k — so the sweep is reproducible for a fixed seed
// at any worker count.
func Sweep(m *linalg.Matrix, kMin, kMax int, opts Options) ([]SweepPoint, error) {
	if kMin < 2 || kMax < kMin {
		return nil, fmt.Errorf("kmeans: invalid sweep range [%d, %d]", kMin, kMax)
	}
	if m == nil {
		return nil, errors.New("kmeans: nil matrix")
	}
	workers := parallel.Workers(opts.Workers)
	points := rowViews(m)

	var dc *distCache
	if len(points) <= maxCachePoints {
		dc = newDistCache(points, workers)
	}

	out := make([]SweepPoint, kMax-kMin+1)
	errs := make([]error, len(out))
	restarts := opts.restarts()
	parallel.For(workers, len(out), func(i int) {
		k := kMin + i
		if err := validateK(k, len(points)); err != nil {
			errs[i] = err
			return
		}
		// Restarts run sequentially inside each k: the sweep already
		// saturates the pool across ks.
		res := clusterSeeded(points, k, restarts, opts.Seed+int64(k)*sweepPrime, 1)
		sizes, err := clusterSizes(res.Labels, k)
		if err != nil {
			errs[i] = err
			return
		}
		var sil float64
		if dc != nil {
			sil = silhouetteFromCache(dc, res.Labels, sizes, k)
		} else {
			sil = silhouetteDirect(points, res.Labels, sizes, k)
		}
		out[i] = SweepPoint{K: k, SSE: res.SSE, Silhouette: sil}
	})
	// First error by ascending k, independent of completion order.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// KneeK picks the sweep's recommended cluster count: the k whose combined
// quality (normalised SSE drop saturating, silhouette still healthy) sits
// at the knee of the curve. The heuristic mirrors the paper's "pick the
// point where the return starts to diminish": the smallest k at which the
// remaining achievable SSE reduction falls below kneeFrac of the total
// range.
func KneeK(sweep []SweepPoint, kneeFrac float64) (int, error) {
	if len(sweep) < 2 {
		return 0, errors.New("kmeans: sweep too short for knee detection")
	}
	if kneeFrac <= 0 || kneeFrac >= 1 {
		return 0, fmt.Errorf("kmeans: knee fraction %v outside (0, 1)", kneeFrac)
	}
	first, last := sweep[0].SSE, sweep[len(sweep)-1].SSE
	span := first - last
	if span <= 0 {
		return sweep[0].K, nil
	}
	for _, p := range sweep {
		if (p.SSE-last)/span <= kneeFrac {
			return p.K, nil
		}
	}
	return sweep[len(sweep)-1].K, nil
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
