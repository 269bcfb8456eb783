// Package kmeans implements FLARE's clustering step (paper Sec 4.4):
// k-means++ seeded Lloyd iteration over whitened PC scores, plus the two
// clustering-quality metrics the paper uses to choose the cluster count —
// Sum of Squared Errors (SSE) and Silhouette Score (Fig 9).
//
// Restarts (and the ks of a Sweep) run concurrently on a bounded worker
// pool. Every unit of work derives its own RNG substream from the base
// seed (the `seed + id*prime` convention documented in DESIGN.md
// "Parallelism & determinism"), and winners are reduced in unit order,
// so results are byte-identical for any Workers setting.
package kmeans

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"flare/internal/linalg"
	"flare/internal/mathx"
	"flare/internal/parallel"
)

// Per-unit seed strides. restartPrime matches the profiler's per-scenario
// substream convention; sweepPrime keeps per-k streams disjoint from the
// per-restart streams derived inside each k.
const (
	restartPrime = 7919
	sweepPrime   = 104729
)

// maxIters bounds Lloyd iterations per restart.
const maxIters = 100

// Options controls a clustering run.
type Options struct {
	// Restarts runs the whole algorithm this many times with different
	// seedings and keeps the lowest-SSE result (ties broken by the lower
	// restart index); <= 0 means 8.
	Restarts int
	// Seed is the base of the per-restart (and per-k, in Sweep) RNG
	// substreams. Every value, 0 included, is a valid seed.
	Seed int64
	// Workers bounds the concurrent restarts (Cluster) or concurrent ks
	// (Sweep); <= 0 means GOMAXPROCS. The result does not depend on it.
	Workers int
}

// Result is a converged clustering.
type Result struct {
	K         int
	Centroids []mathx.Vector // K centroids
	Labels    []int          // cluster index per observation
	Sizes     []int          // observations per cluster
	SSE       float64        // sum of squared point-to-centroid distances
	Iters     int            // Lloyd iterations of the winning restart
}

// Cluster partitions the rows of m into k clusters.
func Cluster(m *linalg.Matrix, k int, opts Options) (*Result, error) {
	if m == nil {
		return nil, errors.New("kmeans: nil matrix")
	}
	if err := validateK(k, m.Rows()); err != nil {
		return nil, err
	}
	return clusterSeeded(rowViews(m), k, opts.restarts(), opts.Seed,
		parallel.Workers(opts.Workers)), nil
}

func validateK(k, n int) error {
	if k <= 0 {
		return fmt.Errorf("kmeans: k = %d, want positive", k)
	}
	if k > n {
		return fmt.Errorf("kmeans: k = %d exceeds %d observations", k, n)
	}
	return nil
}

func (o Options) restarts() int {
	if o.Restarts <= 0 {
		return 8
	}
	return o.Restarts
}

// rowViews adapts a matrix to the point-slice form the kernels consume
// without copying any row data (see linalg.Matrix.RowView's aliasing
// contract; the kernels never write through a point).
func rowViews(m *linalg.Matrix) []mathx.Vector {
	points := make([]mathx.Vector, m.Rows())
	for i := range points {
		points[i] = m.RowView(i)
	}
	return points
}

// clusterSeeded runs restarts Lloyd iterations concurrently, each on its
// own derived RNG substream, and keeps the lowest-SSE result. The winner
// scan runs in restart order with a strict < comparison, so an SSE tie
// deterministically keeps the earlier restart whatever the interleaving.
func clusterSeeded(points []mathx.Vector, k, restarts int, seed int64, workers int) *Result {
	results := make([]*Result, restarts)
	parallel.For(workers, restarts, func(r int) {
		rng := rand.New(rand.NewSource(seed + int64(r)*restartPrime))
		results[r] = lloyd(points, k, rng)
	})
	best := results[0]
	for _, res := range results[1:] {
		if res.SSE < best.SSE {
			best = res
		}
	}
	return best
}

// lloyd runs one k-means++ seeded Lloyd iteration to convergence. All
// per-iteration state (centroid sums, counts) is allocated once up front
// and reused, keeping the inner loop allocation-free.
func lloyd(points []mathx.Vector, k int, rng *rand.Rand) *Result {
	dim := len(points[0])
	centroids := seedPlusPlus(points, k, rng)
	labels := make([]int, len(points))
	sums := make([]mathx.Vector, k)
	for c := range sums {
		sums[c] = mathx.NewVector(dim)
	}
	counts := make([]int, k)
	res := &Result{K: k}

	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for i, p := range points {
			c := nearest(p, centroids)
			if c != labels[i] {
				labels[i] = c
				changed = true
			}
		}
		res.Iters = iter + 1
		recompute(points, labels, centroids, sums, counts, rng)
		if !changed && iter > 0 {
			break
		}
	}

	res.Centroids = centroids
	res.Labels = labels
	res.Sizes = make([]int, k)
	for i, p := range points {
		res.Sizes[labels[i]]++
		res.SSE += p.DistanceSq(centroids[labels[i]])
	}
	return res
}

// seedPlusPlus picks k initial centroids with the k-means++ D^2
// weighting. A running minimum-distance array is updated against only
// the newest centroid, so adding the c-th centroid costs O(n) instead of
// the naive O(n*c) full re-scan; the selected points (and RNG draws) are
// identical to the naive form, which a unit test pins.
func seedPlusPlus(points []mathx.Vector, k int, rng *rand.Rand) []mathx.Vector {
	centroids := make([]mathx.Vector, 0, k)
	first := points[rng.Intn(len(points))].Clone()
	centroids = append(centroids, first)

	minDist := make([]float64, len(points))
	var total float64
	for i, p := range points {
		minDist[i] = p.DistanceSq(first)
		total += minDist[i]
	}
	for len(centroids) < k {
		if total <= 0 {
			// All remaining points coincide with existing centroids; pick
			// arbitrarily to keep k centroids.
			centroids = append(centroids, points[rng.Intn(len(points))].Clone())
			continue
		}
		target := rng.Float64() * total
		idx := 0
		for i, d := range minDist {
			target -= d
			if target <= 0 {
				idx = i
				break
			}
		}
		next := points[idx].Clone()
		centroids = append(centroids, next)
		total = 0
		for i, p := range points {
			if d := p.DistanceSq(next); d < minDist[i] {
				minDist[i] = d
			}
			total += minDist[i]
		}
	}
	return centroids
}

// nearest returns the index of the closest centroid.
func nearest(p mathx.Vector, centroids []mathx.Vector) int {
	best, bestD := 0, math.Inf(1)
	for c, cent := range centroids {
		if d := p.DistanceSq(cent); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// recompute rebuilds centroids in place as cluster means, accumulating
// into the caller's reusable sums/counts scratch; an emptied cluster is
// re-seeded on a random point so k never silently shrinks.
func recompute(points []mathx.Vector, labels []int, centroids, sums []mathx.Vector, counts []int, rng *rand.Rand) {
	for c := range sums {
		clear(sums[c])
		counts[c] = 0
	}
	for i, p := range points {
		p.AccumulateInto(sums[labels[i]])
		counts[labels[i]]++
	}
	for c := range centroids {
		if counts[c] == 0 {
			copy(centroids[c], points[rng.Intn(len(points))])
			continue
		}
		inv := 1 / float64(counts[c])
		dst := centroids[c]
		for d, s := range sums[c] {
			dst[d] = s * inv
		}
	}
}
