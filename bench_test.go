// Package flare's root benchmark harness regenerates every table and
// figure of the paper (one benchmark per experiment, as indexed in
// DESIGN.md) and reports the headline quantities as benchmark metrics:
//
//	go test -bench=. -benchmem
//
// Set -bench=BenchmarkFigure12a etc. to regenerate a single experiment.
// Each benchmark renders its table to the benchmark log (visible with
// -v); the flare-experiments command writes the same tables to files.
package flare

import (
	"bytes"
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"flare/internal/core"
	"flare/internal/dcsim"
	"flare/internal/experiments"
	"flare/internal/machine"
	"flare/internal/obs"
	"flare/internal/report"
	"flare/internal/store"
)

// benchEnv is shared across benchmarks: the environment build (trace,
// profiling, analysis) is itself measured by BenchmarkEnvironmentBuild.
var (
	benchOnce sync.Once
	benchVal  *experiments.Env
	benchErr  error
)

func benchEnvOpts() experiments.EnvOptions {
	// A 10-day trace keeps the full bench suite in CI-friendly time while
	// preserving the paper's regime (hundreds of scenarios, 18 clusters).
	return experiments.EnvOptions{Seed: 1, TraceDays: 10, Clusters: 18}
}

func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchVal, benchErr = experiments.NewEnv(benchEnvOpts())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchVal
}

// runTable benchmarks one experiment generator and logs its rendering.
func runTable(b *testing.B, fn func(*experiments.Env) (*report.Table, error)) *report.Table {
	b.Helper()
	e := env(b)
	var tb *report.Table
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb, err = fn(e)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + tb.Render())
	return tb
}

// cellF parses a numeric cell for metric reporting.
func cellF(b *testing.B, tb *report.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q not numeric", row, col, tb.Rows[row][col])
	}
	return v
}

// BenchmarkEnvironmentBuild measures the full pipeline construction:
// datacenter simulation, profiling every scenario, and the Analyzer run.
func BenchmarkEnvironmentBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := experiments.NewEnv(benchEnvOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(e.Scenarios().Len()), "scenarios")
	}
}

// BenchmarkPipelineStages runs the full pipeline under a tracer and
// reports each instrumented stage's mean wall time as a benchmark metric
// (pipeline.profile-ms, analyze.kmeans-ms, ...). `make bench-stages`
// records the output under results/ so per-stage timings are diffable
// across changes with benchstat or plain diff.
func BenchmarkPipelineStages(b *testing.B) {
	stageMs := map[string]float64{}
	for i := 0; i < b.N; i++ {
		tracer := obs.NewTracer(obs.NewRegistry())
		ctx := obs.WithTracer(context.Background(), tracer)

		simCfg := dcsim.DefaultConfig()
		simCfg.Seed = 1
		simCfg.Duration = 10 * 24 * time.Hour
		trace, err := dcsim.Run(simCfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Profile.Seed = 1
		cfg.Analyze.Seed = 1
		cfg.Analyze.Clusters = 18
		cfg.Replay.Seed = 1
		p, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.ProfileContext(ctx, trace.Scenarios); err != nil {
			b.Fatal(err)
		}
		if err := p.AnalyzeContext(ctx); err != nil {
			b.Fatal(err)
		}
		for _, feat := range machine.PaperFeatures() {
			if _, err := p.Snapshot().EvaluateFeature(ctx, feat); err != nil {
				b.Fatal(err)
			}
		}
		for _, root := range tracer.Snapshot() {
			accumulateStageMs(root, stageMs)
		}
	}
	for stage, ms := range stageMs {
		b.ReportMetric(ms/float64(b.N), stage+"-ms")
	}
}

// accumulateStageMs sums span durations per stage name across a subtree.
func accumulateStageMs(s obs.SpanSnapshot, into map[string]float64) {
	into[s.Name] += s.DurationMs
	for _, c := range s.Children {
		accumulateStageMs(c, into)
	}
}

// ---------------------------------------------------------------------
// Motivation (Sec 3)

// BenchmarkFigure2LoadTestingPitfall regenerates Figure 2: load-testing
// vs in-datacenter per-job impact of Feature 1.
func BenchmarkFigure2LoadTestingPitfall(b *testing.B) {
	tb := runTable(b, experiments.Figure2)
	var worst float64
	for i := range tb.Rows {
		if d := cellF(b, tb, i, 4); d > worst {
			worst = d
		}
	}
	b.ReportMetric(worst, "worst-deviation-pct")
}

// BenchmarkFigure3aOccupancy regenerates Figure 3a: the sorted machine-
// occupancy curve of the scenario population.
func BenchmarkFigure3aOccupancy(b *testing.B) {
	tb := runTable(b, experiments.Figure3a)
	b.ReportMetric(float64(len(tb.Rows)), "scenarios")
}

// BenchmarkFigure3bImpactVsMPKI regenerates Figure 3b and reports the
// weak impact-MPKI correlation.
func BenchmarkFigure3bImpactVsMPKI(b *testing.B) {
	e := env(b)
	runTable(b, experiments.Figure3b)
	corr, err := experiments.Figure3bCorrelation(e)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(corr, "impact-mpki-corr")
}

// ---------------------------------------------------------------------
// Analyzer (Sec 4)

// BenchmarkFigure6MetricCatalog regenerates the raw metric catalog and
// refinement outcome.
func BenchmarkFigure6MetricCatalog(b *testing.B) {
	tb := runTable(b, experiments.Figure6)
	b.ReportMetric(float64(len(tb.Rows)), "raw-metrics")
}

// BenchmarkFigure7PCAVariance regenerates the explained-variance curve.
func BenchmarkFigure7PCAVariance(b *testing.B) {
	runTable(b, experiments.Figure7)
	b.ReportMetric(float64(env(b).Analysis.PCA.NumPC), "selected-pcs")
}

// BenchmarkFigure8PCLoadings regenerates the PC interpretation table.
func BenchmarkFigure8PCLoadings(b *testing.B) {
	runTable(b, experiments.Figure8)
}

// BenchmarkFigure9ClusterSweep regenerates the SSE/silhouette sweep.
func BenchmarkFigure9ClusterSweep(b *testing.B) {
	runTable(b, experiments.Figure9)
}

// BenchmarkFigure10ClusterRadar regenerates the cluster-centre radar
// grid with weights.
func BenchmarkFigure10ClusterRadar(b *testing.B) {
	tb := runTable(b, experiments.Figure10)
	b.ReportMetric(float64(len(tb.Rows)), "clusters")
}

// ---------------------------------------------------------------------
// Accuracy & cost (Sec 5)

// BenchmarkFigure11PerClusterImpact regenerates the per-representative
// impact measurements for the three features.
func BenchmarkFigure11PerClusterImpact(b *testing.B) {
	runTable(b, experiments.Figure11)
}

// BenchmarkFigure12aAllJobAccuracy regenerates the all-job accuracy
// comparison and reports FLARE's worst absolute error across features.
func BenchmarkFigure12aAllJobAccuracy(b *testing.B) {
	tb := runTable(b, experiments.Figure12a)
	var worst float64
	for i := range tb.Rows {
		if e := cellF(b, tb, i, 7); e > worst {
			worst = e
		}
	}
	b.ReportMetric(worst, "flare-worst-abs-err-pct")
}

// BenchmarkFigure12bPerJobAccuracy regenerates the per-job accuracy
// comparison.
func BenchmarkFigure12bPerJobAccuracy(b *testing.B) {
	tb := runTable(b, experiments.Figure12b)
	var sum float64
	for i := range tb.Rows {
		sum += cellF(b, tb, i, 6)
	}
	b.ReportMetric(sum/float64(len(tb.Rows)), "flare-mean-abs-err-pct")
}

// BenchmarkFigure13CostAccuracy regenerates the cost/accuracy tradeoff.
func BenchmarkFigure13CostAccuracy(b *testing.B) {
	runTable(b, experiments.Figure13)
}

// BenchmarkHeadlineClaims regenerates the abstract's summary numbers and
// reports the cost-reduction ratios.
func BenchmarkHeadlineClaims(b *testing.B) {
	tb := runTable(b, experiments.HeadlineClaims)
	var fullOver, sampOver float64
	for i := range tb.Rows {
		fullOver += cellF(b, tb, i, 7)
		sampOver += cellF(b, tb, i, 8)
	}
	n := float64(len(tb.Rows))
	b.ReportMetric(fullOver/n, "full-over-flare-cost")
	b.ReportMetric(sampOver/n, "sampling-over-flare-cost")
}

// ---------------------------------------------------------------------
// Heterogeneous shapes (Sec 5.5)

// BenchmarkFigure14aShapeShift regenerates the colocation-shift example.
func BenchmarkFigure14aShapeShift(b *testing.B) {
	runTable(b, experiments.Figure14a)
}

// BenchmarkFigure14bHeteroEstimation regenerates the small-shape
// estimation study (builds a second, small-shape environment).
func BenchmarkFigure14bHeteroEstimation(b *testing.B) {
	tb := runTable(b, experiments.Figure14b)
	var flareErr float64
	for i := range tb.Rows {
		flareErr += cellF(b, tb, i, 4)
	}
	b.ReportMetric(flareErr/float64(len(tb.Rows)), "flare-mean-abs-err-pct")
}

// ---------------------------------------------------------------------
// Configuration tables

// BenchmarkTable2MachineSpecs regenerates Table 2.
func BenchmarkTable2MachineSpecs(b *testing.B) { runTable(b, experiments.Table2) }

// BenchmarkTable3JobCatalog regenerates Table 3.
func BenchmarkTable3JobCatalog(b *testing.B) { runTable(b, experiments.Table3) }

// BenchmarkTable4Features regenerates Table 4.
func BenchmarkTable4Features(b *testing.B) { runTable(b, experiments.Table4) }

// BenchmarkTable5TwoShapes regenerates Table 5.
func BenchmarkTable5TwoShapes(b *testing.B) { runTable(b, experiments.Table5) }

// ---------------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md)

// BenchmarkAblationClusterCount sweeps the representative count.
func BenchmarkAblationClusterCount(b *testing.B) {
	runTable(b, func(e *experiments.Env) (*report.Table, error) {
		return experiments.AblationClusterCount(e, []int{6, 12, 18, 24, 30})
	})
}

// BenchmarkAblationPCCount sweeps the PCA variance target.
func BenchmarkAblationPCCount(b *testing.B) {
	runTable(b, func(e *experiments.Env) (*report.Table, error) {
		return experiments.AblationPCCount(e, []float64{0.5, 0.7, 0.9, 0.95, 0.99})
	})
}

// BenchmarkAblationWhitening toggles PC-score whitening.
func BenchmarkAblationWhitening(b *testing.B) {
	runTable(b, experiments.AblationWhitening)
}

// BenchmarkAblationRefinement toggles correlation pruning.
func BenchmarkAblationRefinement(b *testing.B) {
	runTable(b, experiments.AblationRefinement)
}

// BenchmarkAblationRepresentativeSelection compares selection strategies.
func BenchmarkAblationRepresentativeSelection(b *testing.B) {
	runTable(b, experiments.AblationRepresentativeSelection)
}

// BenchmarkAblationWeighting compares weighted vs unweighted aggregation.
func BenchmarkAblationWeighting(b *testing.B) {
	runTable(b, experiments.AblationWeighting)
}

// BenchmarkExtensionTemporalMetrics regenerates the Sec 4.1 temporal-
// enrichment study (re-collects the population with phases enabled).
func BenchmarkExtensionTemporalMetrics(b *testing.B) {
	runTable(b, experiments.ExtensionTemporalMetrics)
}

// BenchmarkAblationClusteringMethod compares k-means vs hierarchical
// (Ward) clustering.
func BenchmarkAblationClusteringMethod(b *testing.B) {
	runTable(b, experiments.AblationClusteringMethod)
}

// BenchmarkExtensionCanaryComparison regenerates the canary-cluster
// (WSMeter-style) comparison.
func BenchmarkExtensionCanaryComparison(b *testing.B) {
	runTable(b, experiments.ExtensionCanaryComparison)
}

// BenchmarkExtensionIBenchReplay regenerates the generator-replay study
// (fits an iBench-style mix per representative).
func BenchmarkExtensionIBenchReplay(b *testing.B) {
	runTable(b, experiments.ExtensionIBenchReplay)
}

// BenchmarkExtensionDriftDetection regenerates the representative-
// staleness study (collects two fresh populations).
func BenchmarkExtensionDriftDetection(b *testing.B) {
	runTable(b, experiments.ExtensionDriftDetection)
}

// BenchmarkExtensionPerJobMetrics regenerates the Sec 5.3 per-job-metrics
// study (re-clusters with augmented columns).
func BenchmarkExtensionPerJobMetrics(b *testing.B) {
	runTable(b, experiments.ExtensionPerJobMetrics)
}

// BenchmarkExtensionAlternativeMetrics regenerates the alternative-
// performance-metric study (re-scores the population under 3 metrics).
func BenchmarkExtensionAlternativeMetrics(b *testing.B) {
	runTable(b, experiments.ExtensionAlternativeMetrics)
}

// BenchmarkExtensionSchedulerPolicies regenerates the placement-policy
// population study.
func BenchmarkExtensionSchedulerPolicies(b *testing.B) {
	runTable(b, experiments.ExtensionSchedulerPolicies)
}

// BenchmarkExtensionConfidenceIntervals regenerates the stratified-CI
// study (extra replays per cluster).
func BenchmarkExtensionConfidenceIntervals(b *testing.B) {
	runTable(b, experiments.ExtensionConfidenceIntervals)
}

// BenchmarkStoreAppend measures durable-store append throughput through
// the WAL group-commit path. Fsync is disabled so the number tracks the
// engine's framing/memtable cost rather than the device's sync latency
// (which `make bench-stages` would turn into noise across machines).
func BenchmarkStoreAppend(b *testing.B) {
	opts := store.DefaultOptions()
	opts.SyncWrites = false
	st, err := store.Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	key := make([]byte, 0, 32)
	val := bytes.Repeat([]byte("v"), 128)
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = strconv.AppendInt(key[:0], int64(i), 10)
		if err := st.Append(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreScan measures snapshot scans over a flushed store: 10k
// keys across memtable and segments, full-range merge per iteration.
func BenchmarkStoreScan(b *testing.B) {
	opts := store.DefaultOptions()
	opts.SyncWrites = false
	st, err := store.Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	const keys = 10000
	val := bytes.Repeat([]byte("v"), 128)
	var key []byte
	for i := 0; i < keys; i++ {
		key = strconv.AppendInt(key[:0], int64(i), 10)
		if err := st.Append(key, val); err != nil {
			b.Fatal(err)
		}
		// Flush mid-load so the scan merges segments with the memtable.
		if i == keys/2 {
			if err := st.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := st.Snapshot()
		n := 0
		snap.Scan(func(k, v []byte) bool {
			n++
			return true
		})
		snap.Release()
		if n != keys {
			b.Fatalf("scan saw %d keys, want %d", n, keys)
		}
	}
}
