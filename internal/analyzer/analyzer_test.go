package analyzer

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"flare/internal/dcsim"
	"flare/internal/machine"
	"flare/internal/metrics"
	"flare/internal/profiler"
	"flare/internal/stats"
	"flare/internal/workload"
)

// dataset builds and caches a profiled dataset shared across tests in
// this package (collection is the expensive step).
var (
	dsOnce sync.Once
	dsVal  *profiler.Dataset
	dsErr  error
)

func testDataset(t *testing.T) *profiler.Dataset {
	t.Helper()
	dsOnce.Do(func() {
		cfg := dcsim.DefaultConfig()
		cfg.Duration = 14 * 24 * time.Hour
		cfg.ResizesPerJobPerDay = 3
		trace, err := dcsim.Run(cfg)
		if err != nil {
			dsErr = err
			return
		}
		coll, err := profiler.NewCollector(
			machine.BaselineConfig(machine.DefaultShape()),
			trace.Scenarios,
			workload.DefaultCatalog(),
			metrics.DefaultCatalog(),
			profiler.DefaultOptions(),
		)
		if err != nil {
			dsErr = err
			return
		}
		dsVal, dsErr = coll.Collect(context.Background())
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsVal
}

func TestAnalyzeValidation(t *testing.T) {
	if _, err := AnalyzeContext(context.Background(), nil, DefaultOptions()); err == nil {
		t.Error("nil dataset did not error")
	}
}

func TestAnalyzeFixedClusterCount(t *testing.T) {
	ds := testDataset(t)
	opts := DefaultOptions()
	opts.Clusters = 18
	an, err := AnalyzeContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}

	if an.Clustering.K != 18 {
		t.Errorf("K = %d, want 18", an.Clustering.K)
	}
	if an.Sweep != nil {
		t.Error("sweep ran despite fixed cluster count")
	}
	if len(an.Representatives) == 0 || len(an.Representatives) > 18 {
		t.Fatalf("got %d representatives, want 1..18", len(an.Representatives))
	}

	// Refinement must prune the derived duplicates: strictly fewer
	// columns than raw, but the paper regime (~85 of 100+) not collapse.
	raw := ds.Catalog.Len()
	kept := len(an.RefinedNames)
	if kept >= raw {
		t.Errorf("refinement kept %d of %d metrics, want fewer", kept, raw)
	}
	if kept < raw/2 {
		t.Errorf("refinement kept only %d of %d metrics, implausibly aggressive", kept, raw)
	}

	// PCs must compress the refined dimensions considerably.
	if an.PCA.NumPC >= kept {
		t.Errorf("PCA selected %d PCs of %d metrics, no compression", an.PCA.NumPC, kept)
	}
	if an.PCA.NumPC < 3 {
		t.Errorf("PCA selected only %d PCs, implausible for datacenter data", an.PCA.NumPC)
	}
	if len(an.Labels) != an.PCA.NumPC {
		t.Errorf("%d labels for %d PCs", len(an.Labels), an.PCA.NumPC)
	}
}

func TestAnalyzeRepresentativeInvariants(t *testing.T) {
	ds := testDataset(t)
	opts := DefaultOptions()
	opts.Clusters = 18
	an, err := AnalyzeContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}

	var weightSum float64
	seen := map[int]bool{}
	for _, rep := range an.Representatives {
		weightSum += rep.Weight
		// The representative is its cluster's nearest member.
		if rep.Ranked[0] != rep.ScenarioID {
			t.Errorf("cluster %d: Ranked[0] = %d != ScenarioID %d", rep.Cluster, rep.Ranked[0], rep.ScenarioID)
		}
		// Every ranked member belongs to the cluster.
		for _, id := range rep.Ranked {
			if an.Clustering.Labels[id] != rep.Cluster {
				t.Errorf("scenario %d ranked under cluster %d but labelled %d", id, rep.Cluster, an.Clustering.Labels[id])
			}
		}
		// Ranking is by ascending centroid distance.
		centroid := an.Clustering.Centroids[rep.Cluster]
		prev := -1.0
		for _, id := range rep.Ranked {
			row := an.Scores.Row(id)
			var d float64
			for j, v := range row {
				diff := v - centroid[j]
				d += diff * diff
			}
			if d < prev-1e-9 {
				t.Errorf("cluster %d ranking not ascending", rep.Cluster)
				break
			}
			prev = d
		}
		if seen[rep.Cluster] {
			t.Errorf("cluster %d has two representatives", rep.Cluster)
		}
		seen[rep.Cluster] = true
	}
	if math.Abs(weightSum-1) > 1e-9 {
		t.Errorf("representative weights sum to %v, want 1", weightSum)
	}
}

func TestAnalyzeWhitenedScoresUnitVariance(t *testing.T) {
	ds := testDataset(t)
	opts := DefaultOptions()
	opts.Clusters = 12
	an, err := AnalyzeContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < an.Scores.Cols(); j++ {
		std := stats.StdDev(an.Scores.Col(j))
		if math.Abs(std-1) > 0.01 && std != 0 {
			t.Errorf("whitened PC %d has std %v, want 1", j, std)
		}
	}
}

func TestAnalyzeSkipWhitenKeepsEigenScale(t *testing.T) {
	ds := testDataset(t)
	opts := DefaultOptions()
	opts.Clusters = 12
	opts.SkipWhiten = true
	an, err := AnalyzeContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Without whitening the first PC must carry more variance than the
	// last selected one.
	first := stats.Variance(an.Scores.Col(0))
	last := stats.Variance(an.Scores.Col(an.Scores.Cols() - 1))
	if first <= last {
		t.Errorf("unwhitened PC variances not decreasing: first %v, last %v", first, last)
	}
}

func TestAnalyzeSkipRefineKeepsAllMetrics(t *testing.T) {
	ds := testDataset(t)
	opts := DefaultOptions()
	opts.Clusters = 8
	opts.SkipRefine = true
	an, err := AnalyzeContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.RefinedNames) != ds.Catalog.Len() {
		t.Errorf("SkipRefine kept %d metrics, want all %d", len(an.RefinedNames), ds.Catalog.Len())
	}
	if an.Refined != nil {
		t.Error("SkipRefine still produced a refinement result")
	}
}

func TestAnalyzeAutoClusterSweep(t *testing.T) {
	ds := testDataset(t)
	opts := DefaultOptions()
	opts.SweepMin = 4
	opts.SweepMax = 30
	an, err := AnalyzeContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if an.Sweep == nil {
		t.Fatal("auto mode did not record a sweep")
	}
	if len(an.Sweep) != 27 {
		t.Errorf("sweep has %d points, want 27", len(an.Sweep))
	}
	if an.Clustering.K < opts.SweepMin || an.Clustering.K > opts.SweepMax {
		t.Errorf("selected K = %d outside sweep range", an.Clustering.K)
	}
	// The paper lands at 18 clusters; our knee should be in the same
	// regime (10..30).
	if an.Clustering.K < 10 {
		t.Errorf("knee K = %d, want >= 10 for datacenter-like data", an.Clustering.K)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	ds := testDataset(t)
	opts := DefaultOptions()
	opts.Clusters = 10
	a, err := AnalyzeContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AnalyzeContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Representatives {
		if a.Representatives[i].ScenarioID != b.Representatives[i].ScenarioID {
			t.Fatal("same options produced different representatives")
		}
	}
}

func TestClusterCenterPCs(t *testing.T) {
	ds := testDataset(t)
	opts := DefaultOptions()
	opts.Clusters = 6
	an, err := AnalyzeContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := an.ClusterCenterPCs(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != an.PCA.NumPC {
		t.Errorf("center has %d dims, want %d", len(c), an.PCA.NumPC)
	}
	if _, err := an.ClusterCenterPCs(99); err == nil {
		t.Error("out-of-range cluster did not error")
	}
}

func TestAnalyzeHierarchicalMethod(t *testing.T) {
	ds := testDataset(t)
	opts := DefaultOptions()
	opts.Clusters = 18
	opts.Method = MethodHierarchical
	an, err := AnalyzeContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if an.Clustering.K != 18 {
		t.Errorf("hierarchical K = %d, want 18", an.Clustering.K)
	}
	var weightSum float64
	for _, rep := range an.Representatives {
		weightSum += rep.Weight
		if an.Clustering.Labels[rep.ScenarioID] != rep.Cluster {
			t.Errorf("representative %d not in its cluster", rep.ScenarioID)
		}
	}
	if math.Abs(weightSum-1) > 1e-9 {
		t.Errorf("weights sum to %v", weightSum)
	}
	// SSE must be self-consistent and in the same ballpark as k-means.
	kopts := DefaultOptions()
	kopts.Clusters = 18
	km, err := AnalyzeContext(context.Background(), ds, kopts)
	if err != nil {
		t.Fatal(err)
	}
	if an.Clustering.SSE < km.Clustering.SSE*0.8 {
		t.Errorf("Ward SSE %v implausibly below k-means %v", an.Clustering.SSE, km.Clustering.SSE)
	}
	if an.Clustering.SSE > km.Clustering.SSE*2.0 {
		t.Errorf("Ward SSE %v far above k-means %v", an.Clustering.SSE, km.Clustering.SSE)
	}
}

func TestMethodString(t *testing.T) {
	if MethodKMeans.String() != "kmeans" || MethodHierarchical.String() != "hierarchical" {
		t.Error("Method.String wrong")
	}
}

func TestAnalyzePerJobMetrics(t *testing.T) {
	ds := testDataset(t)
	opts := DefaultOptions()
	opts.Clusters = 12
	opts.PerJobMetrics = []string{workload.GraphAnalytics, workload.DataCaching}
	an, err := AnalyzeContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if an.AugmentedCols != 4 {
		t.Errorf("AugmentedCols = %d, want 4 (2 jobs x 2 columns)", an.AugmentedCols)
	}
	// The per-job columns must survive into the refined name space (they
	// are not duplicates of anything).
	found := 0
	for _, n := range an.RefinedNames {
		if n == "PerJob-MIPS-GA" || n == "PerJob-Instances-GA" ||
			n == "PerJob-MIPS-DC" || n == "PerJob-Instances-DC" {
			found++
		}
	}
	if found < 2 {
		t.Errorf("only %d per-job columns survived refinement", found)
	}
}

func TestAnalyzePerJobMetricsUnknownJob(t *testing.T) {
	ds := testDataset(t)
	opts := DefaultOptions()
	opts.Clusters = 8
	opts.PerJobMetrics = []string{"nosuchjob"}
	if _, err := AnalyzeContext(context.Background(), ds, opts); err == nil {
		t.Error("unknown per-job metric did not error")
	}
	opts.PerJobMetrics = []string{""}
	if _, err := AnalyzeContext(context.Background(), ds, opts); err == nil {
		t.Error("empty per-job metric did not error")
	}
}
