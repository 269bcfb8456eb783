package analyzer

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"flare/internal/dcsim"
	"flare/internal/machine"
	"flare/internal/metrics"
	"flare/internal/pca"
	"flare/internal/profiler"
	"flare/internal/scenario"
	"flare/internal/workload"
)

// tickFixture profiles a prefix of a simulated population with a
// streaming collector, leaving the rest to be appended by ticks.
type tickFixture struct {
	collector *profiler.Collector
	set       *scenario.Set
	rest      []scenario.Scenario
}

func newTickFixture(t *testing.T, hold int) *tickFixture {
	t.Helper()
	cfg := dcsim.DefaultConfig()
	cfg.Duration = 10 * 24 * time.Hour
	cfg.ResizesPerJobPerDay = 3
	trace, err := dcsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := trace.Scenarios.All()
	if len(all) <= hold+2 {
		t.Fatalf("trace produced %d scenarios, need more than %d", len(all), hold+2)
	}
	set := scenario.NewSet()
	for _, sc := range all[:len(all)-hold] {
		set.Add(sc)
	}
	c, err := profiler.NewCollector(
		machine.BaselineConfig(machine.DefaultShape()),
		set,
		workload.DefaultCatalog(),
		metrics.DefaultCatalog(),
		profiler.DefaultOptions(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Collect(t.Context()); err != nil {
		t.Fatal(err)
	}
	return &tickFixture{collector: c, set: set, rest: all[len(all)-hold:]}
}

func TestIncrementalTickTracksBatchPCA(t *testing.T) {
	fx := newTickFixture(t, 12)
	opts := DefaultOptions()
	opts.Clusters = 8

	an, err := AnalyzeContext(t.Context(), fx.collector.Dataset(), opts)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(an, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, sc := range fx.rest {
		fx.set.Add(sc)
	}
	touched, err := fx.collector.Tick(t.Context(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(touched) != 12 {
		t.Fatalf("tick touched %d scenarios, want 12", len(touched))
	}
	rebuilt, err := inc.TickContext(t.Context(), touched)
	if err != nil {
		t.Fatal(err)
	}

	cur := inc.Analysis()
	n := fx.set.Len()
	if cur.Scores.Rows() != n {
		t.Fatalf("scores cover %d scenarios, want %d", cur.Scores.Rows(), n)
	}
	if len(cur.Clustering.Labels) != n {
		t.Fatalf("labels cover %d scenarios, want %d", len(cur.Clustering.Labels), n)
	}
	var weight float64
	for _, rep := range cur.Representatives {
		weight += rep.Weight
	}
	if math.Abs(weight-1) > 1e-9 {
		t.Fatalf("representative weights sum to %g, want 1", weight)
	}
	if rebuilt {
		// A rebuild is a legitimate outcome (NumPC moved); the analysis is
		// then the batch one and there is nothing incremental to compare.
		if inc.Rebuilds() != 1 {
			t.Fatalf("rebuilds = %d after rebuilding tick, want 1", inc.Rebuilds())
		}
		return
	}
	if inc.Ticks() != 1 {
		t.Fatalf("ticks = %d, want 1", inc.Ticks())
	}

	// The incremental PCA is fit from running moments over exactly the
	// rows a batch fit over the frozen refinement would see (a batch
	// re-analysis would also re-run refinement, which is deliberately NOT
	// what a tick does), so the models must agree to float error.
	refined, err := an.Refined.Apply(fx.collector.Dataset().Matrix)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := pca.Fit(refined, opts.VarianceTarget)
	if err != nil {
		t.Fatal(err)
	}
	if cur.PCA.NumPC != batch.NumPC {
		t.Fatalf("NumPC = %d incremental vs %d batch", cur.PCA.NumPC, batch.NumPC)
	}
	for k := 0; k < batch.NumPC; k++ {
		if d := math.Abs(cur.PCA.Explained[k] - batch.Explained[k]); d > 1e-9 {
			t.Fatalf("explained[%d] differs from batch by %g", k, d)
		}
		var dot float64
		for j := range batch.Components[k] {
			dot += cur.PCA.Components[k][j] * batch.Components[k][j]
		}
		if math.Abs(dot) < 1-1e-8 {
			t.Fatalf("component %d misaligned with batch: |dot| = %g", k, math.Abs(dot))
		}
	}
}

func TestIncrementalRebuildMatchesBatch(t *testing.T) {
	fx := newTickFixture(t, 8)
	opts := DefaultOptions()
	opts.Clusters = 8

	an, err := AnalyzeContext(t.Context(), fx.collector.Dataset(), opts)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(an, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range fx.rest {
		fx.set.Add(sc)
	}
	touched, err := fx.collector.Tick(t.Context(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.TickContext(t.Context(), touched); err != nil {
		t.Fatal(err)
	}
	if err := inc.RebuildContext(t.Context()); err != nil {
		t.Fatal(err)
	}

	batch, err := AnalyzeContext(t.Context(), fx.collector.Dataset(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cur := inc.Analysis()
	if !reflect.DeepEqual(cur.PCA, batch.PCA) {
		t.Error("rebuilt PCA differs from batch")
	}
	if !reflect.DeepEqual(cur.Scores, batch.Scores) {
		t.Error("rebuilt scores differ from batch")
	}
	if !reflect.DeepEqual(cur.Clustering, batch.Clustering) {
		t.Error("rebuilt clustering differs from batch")
	}
	if !reflect.DeepEqual(cur.Representatives, batch.Representatives) {
		t.Error("rebuilt representatives differ from batch")
	}
}

func TestIncrementalValidation(t *testing.T) {
	if _, err := NewIncremental(nil, DefaultOptions()); err == nil {
		t.Error("nil analysis did not error")
	}

	ds := testDataset(t)
	opts := DefaultOptions()
	opts.Clusters = 6
	opts.PerJobMetrics = []string{workload.WebSearch}
	augmented, err := AnalyzeContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIncremental(augmented, opts); err == nil {
		t.Error("per-job augmented analysis did not error")
	}

	opts.PerJobMetrics = nil
	an, err := AnalyzeContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(an, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.TickContext(t.Context(), []int{ds.Matrix.Rows() + 5}); err == nil {
		t.Error("out-of-range touched index did not error")
	}
}
