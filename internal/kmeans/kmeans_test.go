package kmeans

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"flare/internal/linalg"
)

// blobs builds n points around k well-separated centres in dim dimensions
// and returns the matrix plus the true assignment.
func blobs(r *rand.Rand, n, k, dim int, spread float64) (*linalg.Matrix, []int) {
	centres := make([][]float64, k)
	for c := range centres {
		centres[c] = make([]float64, dim)
		for d := range centres[c] {
			centres[c][d] = float64(c*20) + 10*r.Float64()
		}
	}
	m := linalg.NewMatrix(n, dim)
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		truth[i] = c
		for d := 0; d < dim; d++ {
			m.Set(i, d, centres[c][d]+spread*r.NormFloat64())
		}
	}
	return m, truth
}

func opts(seed int64) Options {
	return Options{Seed: rand.New(rand.NewSource(seed)).Int63()}
}

func TestClusterValidation(t *testing.T) {
	m := linalg.NewMatrix(5, 2)
	if _, err := Cluster(nil, 2, opts(1)); err == nil {
		t.Error("nil matrix did not error")
	}
	if _, err := Cluster(m, 0, opts(1)); err == nil {
		t.Error("k=0 did not error")
	}
	if _, err := Cluster(m, 6, opts(1)); err == nil {
		t.Error("k > n did not error")
	}
}

func TestClusterRecoversBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	m, truth := blobs(r, 300, 3, 4, 0.5)
	res, err := Cluster(m, 3, opts(2))
	if err != nil {
		t.Fatal(err)
	}
	// Every true blob must map to exactly one predicted cluster.
	mapping := map[int]int{}
	for i, lbl := range res.Labels {
		if prev, seen := mapping[truth[i]]; seen {
			if prev != lbl {
				t.Fatalf("blob %d split across clusters %d and %d", truth[i], prev, lbl)
			}
			continue
		}
		mapping[truth[i]] = lbl
	}
	if len(mapping) != 3 {
		t.Errorf("blobs mapped onto %d clusters, want 3", len(mapping))
	}
}

func TestClusterSizesAndSSEConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m, _ := blobs(r, 120, 4, 3, 1.0)
	res, err := Cluster(m, 4, opts(3))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != 120 {
		t.Errorf("sizes sum to %d, want 120", total)
	}
	// Recompute SSE independently.
	var sse float64
	for i := 0; i < m.Rows(); i++ {
		p := m.Row(i)
		c := res.Centroids[res.Labels[i]]
		for d := range p {
			diff := p[d] - c[d]
			sse += diff * diff
		}
	}
	if math.Abs(sse-res.SSE) > 1e-6*(1+sse) {
		t.Errorf("reported SSE %v != recomputed %v", res.SSE, sse)
	}
}

func TestClusterKEqualsN(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	m, _ := blobs(r, 10, 2, 2, 0.1)
	res, err := Cluster(m, 10, opts(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.SSE > 1e-9 {
		t.Errorf("k = n should give SSE 0, got %v", res.SSE)
	}
}

func TestClusterDeterministicGivenSeed(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m, _ := blobs(r, 100, 3, 3, 1.0)
	a, err := Cluster(m, 3, opts(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(m, 3, opts(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different labels")
		}
	}
}

func TestSSEDecreasesWithKProperty(t *testing.T) {
	// Best-of-restarts SSE should be (weakly) monotone decreasing in k on
	// any dataset.
	r := rand.New(rand.NewSource(6))
	m, _ := blobs(r, 150, 5, 3, 2.0)
	prev := math.Inf(1)
	for k := 2; k <= 12; k += 2 {
		res, err := Cluster(m, k, Options{Seed: rand.New(rand.NewSource(8)).Int63(), Restarts: 12})
		if err != nil {
			t.Fatal(err)
		}
		// Allow a small tolerance: restarts are stochastic.
		if res.SSE > prev*1.05 {
			t.Errorf("SSE rose from %v to %v at k=%d", prev, res.SSE, k)
		}
		prev = res.SSE
	}
}

func TestSilhouetteSeparatedBlobsNearOne(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	m, truth := blobs(r, 150, 3, 3, 0.3)
	sil, err := Silhouette(m, truth, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sil < 0.8 {
		t.Errorf("silhouette of well-separated blobs = %v, want > 0.8", sil)
	}
}

func TestSilhouetteRandomLabelsNearZero(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	m, _ := blobs(r, 200, 1, 3, 5.0) // one blob: no real structure
	labels := make([]int, 200)
	for i := range labels {
		labels[i] = r.Intn(4)
	}
	sil, err := Silhouette(m, labels, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sil) > 0.1 {
		t.Errorf("silhouette of random labels = %v, want ~0", sil)
	}
}

func TestSilhouetteValidation(t *testing.T) {
	m := linalg.NewMatrix(5, 2)
	if _, err := Silhouette(nil, nil, 2); err == nil {
		t.Error("nil matrix did not error")
	}
	if _, err := Silhouette(m, []int{0}, 2); err == nil {
		t.Error("label-count mismatch did not error")
	}
	if _, err := Silhouette(m, []int{0, 0, 0, 0, 0}, 1); err == nil {
		t.Error("k < 2 did not error")
	}
	if _, err := Silhouette(m, []int{0, 0, 0, 0, 9}, 2); err == nil {
		t.Error("out-of-range label did not error")
	}
}

func TestSilhouetteBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k := 20+r.Intn(40), 2+r.Intn(4)
		m, _ := blobs(r, n, k, 2, 3.0)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = r.Intn(k)
		}
		sil, err := Silhouette(m, labels, k)
		if err != nil {
			return false
		}
		return sil >= -1 && sil <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSweepAndKnee(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	m, _ := blobs(r, 240, 6, 4, 0.5)
	sweep, err := Sweep(m, 2, 12, Options{Seed: rand.New(rand.NewSource(12)).Int63(), Restarts: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 11 {
		t.Fatalf("sweep has %d points, want 11", len(sweep))
	}
	knee, err := KneeK(sweep, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// The knee should land at or just above the true blob count.
	if knee < 5 || knee > 8 {
		t.Errorf("knee k = %d for 6 blobs, want 5..8", knee)
	}
	// Silhouette should peak around the true k.
	bestSil, bestK := -2.0, 0
	for _, p := range sweep {
		if p.Silhouette > bestSil {
			bestSil, bestK = p.Silhouette, p.K
		}
	}
	if bestK != 6 {
		t.Errorf("silhouette peaks at k=%d, want 6", bestK)
	}
}

func TestSweepValidation(t *testing.T) {
	m := linalg.NewMatrix(10, 2)
	if _, err := Sweep(m, 1, 5, opts(1)); err == nil {
		t.Error("kMin < 2 did not error")
	}
	if _, err := Sweep(m, 5, 3, opts(1)); err == nil {
		t.Error("kMax < kMin did not error")
	}
}

func TestKneeKValidation(t *testing.T) {
	if _, err := KneeK([]SweepPoint{{K: 2}}, 0.1); err == nil {
		t.Error("short sweep did not error")
	}
	sweep := []SweepPoint{{K: 2, SSE: 10}, {K: 3, SSE: 5}}
	if _, err := KneeK(sweep, 0); err == nil {
		t.Error("zero knee fraction did not error")
	}
	if _, err := KneeK(sweep, 1); err == nil {
		t.Error("knee fraction 1 did not error")
	}
}

func TestKneeKFlatSSE(t *testing.T) {
	sweep := []SweepPoint{{K: 2, SSE: 5}, {K: 3, SSE: 5}, {K: 4, SSE: 5}}
	k, err := KneeK(sweep, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Errorf("flat SSE knee = %d, want 2 (no gain from more clusters)", k)
	}
}
