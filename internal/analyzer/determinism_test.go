package analyzer

import (
	"context"
	"reflect"
	"runtime"
	"testing"
)

// TestAnalyzeWorkersGolden is the determinism gate for the parallel
// analysis kernels: the full Analyzer output — cluster labels, centroids,
// representatives, the sweep, and the knee-selected k — must be
// byte-identical whether the fan-out runs on one worker or many. Run
// under -race by `make race`, this also shakes out data races in the
// sweep/restart/covariance pools.
func TestAnalyzeWorkersGolden(t *testing.T) {
	ds := testDataset(t)
	opts := DefaultOptions()
	opts.Seed = 42
	opts.SweepMax = 16 // keep the -race sweep cheap but real

	runWith := func(workers int) *Analysis {
		t.Helper()
		o := opts
		o.Workers = workers
		an, err := AnalyzeContext(context.Background(), ds, o)
		if err != nil {
			t.Fatal(err)
		}
		return an
	}

	base := runWith(1)
	if base.Sweep == nil {
		t.Fatal("expected a sweep (Clusters unset)")
	}
	workerCounts := []int{4, runtime.GOMAXPROCS(0)}
	for _, workers := range workerCounts {
		got := runWith(workers)
		if !reflect.DeepEqual(base.Clustering, got.Clustering) {
			t.Errorf("Workers=%d: clustering (labels/centroids/SSE) differs from Workers=1", workers)
		}
		if !reflect.DeepEqual(base.Sweep, got.Sweep) {
			t.Errorf("Workers=%d: sweep differs from Workers=1", workers)
		}
		if !reflect.DeepEqual(base.Representatives, got.Representatives) {
			t.Errorf("Workers=%d: representatives differ from Workers=1", workers)
		}
		if !reflect.DeepEqual(base.PCA, got.PCA) {
			t.Errorf("Workers=%d: PCA model differs from Workers=1", workers)
		}
		if !reflect.DeepEqual(base.Scores, got.Scores) {
			t.Errorf("Workers=%d: PC scores differ from Workers=1", workers)
		}
	}
}

// TestAnalyzeSeedZeroStillWorks pins the Rand fallback: a zero Seed is a
// valid (if discouraged) configuration and must stay reproducible.
func TestAnalyzeSeedZeroStillWorks(t *testing.T) {
	ds := testDataset(t)
	opts := DefaultOptions()
	opts.Seed = 0
	opts.Clusters = 8

	a, err := AnalyzeContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	b, err := AnalyzeContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Clustering, b.Clustering) {
		t.Error("Seed=0 clustering depends on Workers")
	}
}
