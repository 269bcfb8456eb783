package drift

import (
	"context"
	"sync"
	"testing"
	"time"

	"flare/internal/analyzer"
	"flare/internal/dcsim"
	"flare/internal/linalg"
	"flare/internal/machine"
	"flare/internal/metrics"
	"flare/internal/profiler"
	"flare/internal/workload"
)

type fixture struct {
	an      *analyzer.Analysis
	ds      *profiler.Dataset
	calDS   *profiler.Dataset // held-out calibration trace, same regime
	sameDS  *profiler.Dataset // fresh trace, same regime
	shiftDS *profiler.Dataset // different machine shape: drifted regime
	err     error
}

var (
	fixOnce sync.Once
	fix     fixture
)

func collectOn(shape machine.Shape, seed int64) (*profiler.Dataset, error) {
	simCfg := dcsim.DefaultConfig()
	simCfg.Shape = shape
	simCfg.Seed = seed
	simCfg.Duration = 10 * 24 * time.Hour
	simCfg.ResizesPerJobPerDay = 3
	trace, err := dcsim.Run(simCfg)
	if err != nil {
		return nil, err
	}
	opts := profiler.DefaultOptions()
	opts.Seed = seed
	coll, err := profiler.NewCollector(machine.BaselineConfig(shape), trace.Scenarios,
		workload.DefaultCatalog(), metrics.DefaultCatalog(), opts)
	if err != nil {
		return nil, err
	}
	return coll.Collect(context.Background())
}

func testFixture(t *testing.T) fixture {
	t.Helper()
	fixOnce.Do(func() {
		fix.ds, fix.err = collectOn(machine.DefaultShape(), 1)
		if fix.err != nil {
			return
		}
		opts := analyzer.DefaultOptions()
		opts.Clusters = 16
		fix.an, fix.err = analyzer.AnalyzeContext(context.Background(), fix.ds, opts)
		if fix.err != nil {
			return
		}
		fix.calDS, fix.err = collectOn(machine.DefaultShape(), 50)
		if fix.err != nil {
			return
		}
		fix.sameDS, fix.err = collectOn(machine.DefaultShape(), 99)
		if fix.err != nil {
			return
		}
		// Shifted regime: scenarios collected on (and profiled against)
		// the Small shape, where colocations saturate differently.
		fix.shiftDS, fix.err = collectOn(machine.SmallShape(), 7)
	})
	if fix.err != nil {
		t.Fatal(fix.err)
	}
	return fix
}

func TestNewDetectorValidation(t *testing.T) {
	f := testFixture(t)
	if _, err := NewDetector(nil, 0.95); err == nil {
		t.Error("nil analysis did not error")
	}
	if _, err := NewDetector(f.an, 0); err == nil {
		t.Error("quantile 0 did not error")
	}
	if _, err := NewDetector(f.an, 1); err == nil {
		t.Error("quantile 1 did not error")
	}
}

func TestDetectorThresholdCalibrated(t *testing.T) {
	f := testFixture(t)
	det, err := NewDetector(f.an, DefaultQuantile)
	if err != nil {
		t.Fatal(err)
	}
	if det.Threshold() <= 0 {
		t.Errorf("threshold = %v, want positive", det.Threshold())
	}
	// By construction ~5% of the training data itself exceeds the p95
	// threshold.
	rep, err := det.Assess(f.an.Dataset.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NovelFraction < 0.02 || rep.NovelFraction > 0.08 {
		t.Errorf("training self-novelty = %v, want ~0.05", rep.NovelFraction)
	}
	if rep.Drifted {
		t.Error("detector flagged its own training data as drifted")
	}
}

func TestDetectorSameRegimeNoDrift(t *testing.T) {
	// Production recipe: calibrate the threshold on a held-out window,
	// then assess fresh data (training-set calibration is biased tight).
	f := testFixture(t)
	det, err := NewDetector(f.an, DefaultQuantile)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Calibrate(f.calDS.Matrix); err != nil {
		t.Fatal(err)
	}
	rep, err := det.Assess(f.sameDS.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drifted {
		t.Errorf("fresh trace from the same regime flagged as drifted (novel %v)", rep.NovelFraction)
	}
}

func TestDetectorShiftedRegimeDrifts(t *testing.T) {
	f := testFixture(t)
	det, err := NewDetector(f.an, DefaultQuantile)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Calibrate(f.calDS.Matrix); err != nil {
		t.Fatal(err)
	}
	rep, err := det.Assess(f.shiftDS.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drifted {
		t.Errorf("small-shape population not flagged (novel %v vs expected %v)",
			rep.NovelFraction, rep.ExpectedNovel)
	}
	if rep.MaxScore <= det.Threshold() {
		t.Error("max drift score within threshold despite regime shift")
	}
}

func TestScoreVectorLengthMismatch(t *testing.T) {
	f := testFixture(t)
	det, err := NewDetector(f.an, DefaultQuantile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Score([]float64{1, 2, 3}); err == nil {
		t.Error("short vector did not error")
	}
}

func TestAssessEmptyMatrix(t *testing.T) {
	f := testFixture(t)
	det, err := NewDetector(f.an, DefaultQuantile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Assess(nil); err == nil {
		t.Error("nil matrix did not error")
	}
	if _, err := det.Assess(linalg.NewMatrix(1, 3)); err == nil {
		t.Error("wrong-width matrix did not error")
	}
	if err := det.Calibrate(nil); err == nil {
		t.Error("nil calibration matrix did not error")
	}
}

func TestNewDetectorRejectsAugmentedAnalysis(t *testing.T) {
	f := testFixture(t)
	opts := analyzer.DefaultOptions()
	opts.Clusters = 8
	opts.PerJobMetrics = []string{workload.GraphAnalytics}
	an, err := analyzer.AnalyzeContext(context.Background(), f.ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDetector(an, DefaultQuantile); err == nil {
		t.Error("augmented analysis did not error")
	}
}
