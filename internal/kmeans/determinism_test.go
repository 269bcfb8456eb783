package kmeans

import (
	"math/rand"
	"reflect"
	"testing"

	"flare/internal/mathx"
)

// naiveSeedPlusPlus is the pre-optimisation reference implementation of
// k-means++ seeding: a full O(n*c) re-scan of every centroid per added
// centroid. seedPlusPlus must select the same points from the same RNG
// draws with its O(n) running min-distance array.
func naiveSeedPlusPlus(points []mathx.Vector, k int, rng *rand.Rand) []mathx.Vector {
	centroids := make([]mathx.Vector, 0, k)
	centroids = append(centroids, points[rng.Intn(len(points))].Clone())
	dist := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		for i, p := range points {
			d := p.DistanceSq(centroids[0])
			for _, c := range centroids[1:] {
				if dd := p.DistanceSq(c); dd < d {
					d = dd
				}
			}
			dist[i] = d
			total += d
		}
		if total <= 0 {
			centroids = append(centroids, points[rng.Intn(len(points))].Clone())
			continue
		}
		target := rng.Float64() * total
		idx := 0
		for i, d := range dist {
			target -= d
			if target <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, points[idx].Clone())
	}
	return centroids
}

func TestSeedPlusPlusMatchesNaiveReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		r := rand.New(rand.NewSource(seed))
		m, _ := blobs(r, 200, 5, 6, 1.5)
		points := rowViews(m)

		got := seedPlusPlus(points, 12, rand.New(rand.NewSource(seed)))
		want := naiveSeedPlusPlus(points, 12, rand.New(rand.NewSource(seed)))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: incremental seeding diverged from naive reference", seed)
		}
	}
}

func TestSeedPlusPlusDegenerateDuplicatePoints(t *testing.T) {
	// All points identical: total distance stays 0 and seeding must still
	// deliver k centroids via the arbitrary-pick fallback, exactly as the
	// naive reference does.
	points := make([]mathx.Vector, 10)
	for i := range points {
		points[i] = mathx.Vector{3, 3, 3}
	}
	got := seedPlusPlus(points, 4, rand.New(rand.NewSource(9)))
	want := naiveSeedPlusPlus(points, 4, rand.New(rand.NewSource(9)))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("degenerate seeding diverged from naive reference")
	}
	if len(got) != 4 {
		t.Fatalf("got %d centroids, want 4", len(got))
	}
}

func TestClusterSeedWorkersInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m, _ := blobs(r, 300, 4, 5, 1.0)
	base, err := Cluster(m, 4, Options{Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 13} {
		got, err := Cluster(m, 4, Options{Seed: 11, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("Workers=%d produced a different clustering than Workers=1", workers)
		}
	}
}

func TestSweepSeedWorkersInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m, _ := blobs(r, 180, 5, 4, 1.0)
	base, err := Sweep(m, 2, 12, Options{Seed: 17, Workers: 1, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3, 8} {
		got, err := Sweep(m, 2, 12, Options{Seed: 17, Workers: workers, Restarts: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("Workers=%d produced a different sweep than Workers=1", workers)
		}
	}
}

func TestClusterSSETieKeepsEarlierRestart(t *testing.T) {
	// k = n forces SSE 0 for every restart: the reduction must keep the
	// first restart's result (strict < comparison), whatever the
	// scheduling order.
	r := rand.New(rand.NewSource(8))
	m, _ := blobs(r, 12, 3, 2, 0.2)
	base, err := Cluster(m, 12, Options{Seed: 2, Workers: 1, Restarts: 6})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Cluster(m, 12, Options{Seed: 2, Workers: 6, Restarts: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Fatal("tied-SSE winner depends on worker count")
	}
}

func TestSilhouetteCacheMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	m, _ := blobs(r, 150, 4, 3, 2.0)
	res, err := Cluster(m, 4, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := clusterSizes(res.Labels, 4)
	if err != nil {
		t.Fatal(err)
	}
	points := rowViews(m)
	direct := silhouetteDirect(points, res.Labels, sizes, 4)
	for _, workers := range []int{1, 4} {
		dc := newDistCache(points, workers)
		if cached := silhouetteFromCache(dc, res.Labels, sizes, 4); cached != direct {
			t.Fatalf("workers=%d: cached silhouette %v != direct %v", workers, cached, direct)
		}
	}
}
