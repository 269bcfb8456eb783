package replayer

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"flare/internal/analyzer"
	"flare/internal/dcsim"
	"flare/internal/machine"
	"flare/internal/metrics"
	"flare/internal/perfscore"
	"flare/internal/profiler"
	"flare/internal/workload"
)

type fixture struct {
	cfg machine.Config
	cat *workload.Catalog
	inh *perfscore.Inherent
	an  *analyzer.Analysis
	err error
}

var (
	fixOnce sync.Once
	fix     fixture
)

func testFixture(t *testing.T) fixture {
	t.Helper()
	fixOnce.Do(func() {
		fix.cfg = machine.BaselineConfig(machine.DefaultShape())
		fix.cat = workload.DefaultCatalog()

		simCfg := dcsim.DefaultConfig()
		simCfg.Duration = 14 * 24 * time.Hour
		simCfg.ResizesPerJobPerDay = 3
		trace, err := dcsim.Run(simCfg)
		if err != nil {
			fix.err = err
			return
		}
		ds, err := profiler.Collect(fix.cfg, trace.Scenarios,
			fix.cat, metrics.DefaultCatalog(), profiler.DefaultOptions())
		if err != nil {
			fix.err = err
			return
		}
		opts := analyzer.DefaultOptions()
		opts.Clusters = 18
		fix.an, err = analyzer.Analyze(ds, opts)
		if err != nil {
			fix.err = err
			return
		}
		fix.inh, fix.err = perfscore.NewInherent(fix.cfg, fix.cat)
	})
	if fix.err != nil {
		t.Fatal(fix.err)
	}
	return fix
}

// groundTruth computes the full-datacenter impact: the unweighted mean
// reduction over every scenario in the population.
func groundTruth(t *testing.T, f fixture, feat machine.Feature) float64 {
	t.Helper()
	var sum float64
	n := f.an.Dataset.Scenarios.Len()
	for id := 0; id < n; id++ {
		sc, err := f.an.Dataset.Scenarios.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		imp, err := perfscore.EvaluateScenario(f.cfg, feat, sc, f.cat, f.inh, perfscore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sum += imp.ReductionPct
	}
	return sum / float64(n)
}

func TestEstimateAllJobValidation(t *testing.T) {
	f := testFixture(t)
	if _, err := EstimateAllJob(context.Background(), nil, f.cat, f.inh, f.cfg, machine.Baseline(), DefaultOptions()); err == nil {
		t.Error("nil analysis did not error")
	}
}

func TestEstimateAllJobTracksGroundTruth(t *testing.T) {
	// The headline claim: 18 representatives estimate the full-population
	// impact with ~1% absolute error (paper Sec 5.3).
	f := testFixture(t)
	for _, feat := range machine.PaperFeatures() {
		truth := groundTruth(t, f, feat)
		est, err := EstimateAllJob(context.Background(), f.an, f.cat, f.inh, f.cfg, feat, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", feat.Name, err)
		}
		if est.ScenariosReplayed != len(f.an.Representatives) {
			t.Errorf("%s: replayed %d scenarios, want %d", feat.Name, est.ScenariosReplayed, len(f.an.Representatives))
		}
		if err := absErrCheck(est.ReductionPct, truth, 2.0); err != nil {
			t.Errorf("%s: FLARE estimate %v vs truth %v: %v", feat.Name, est.ReductionPct, truth, err)
		}
		if est.ReductionPct <= 0 {
			t.Errorf("%s: estimate %v, want positive reduction", feat.Name, est.ReductionPct)
		}
	}
}

func absErrCheck(got, want, tol float64) error {
	if math.Abs(got-want) > tol {
		return errTooFar{got: got, want: want, tol: tol}
	}
	return nil
}

type errTooFar struct{ got, want, tol float64 }

func (e errTooFar) Error() string {
	return "absolute error exceeds tolerance"
}

func TestEstimateAllJobPerClusterDiversity(t *testing.T) {
	// Fig 11: clusters must respond differently to the same feature.
	f := testFixture(t)
	est, err := EstimateAllJob(context.Background(), f.an, f.cat, f.inh, f.cfg, machine.CacheSizing(12), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, ci := range est.PerCluster {
		if ci.ReductionPct < lo {
			lo = ci.ReductionPct
		}
		if ci.ReductionPct > hi {
			hi = ci.ReductionPct
		}
	}
	if hi-lo < 1 {
		t.Errorf("per-cluster impacts span only [%v, %v]; expected diverse responses", lo, hi)
	}
}

func TestEstimatePerJob(t *testing.T) {
	f := testFixture(t)
	feat := machine.DVFSCap(1.8)
	for _, p := range f.cat.HPJobs() {
		est, err := EstimatePerJob(context.Background(), f.an, f.cat, f.inh, f.cfg, feat, p.Name, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if est.ReductionPct <= 0 || est.ReductionPct > 60 {
			t.Errorf("%s: per-job reduction = %v, want in (0, 60]", p.Name, est.ReductionPct)
		}
		if len(est.PerCluster) == 0 {
			t.Errorf("%s: no contributing clusters", p.Name)
		}
	}
}

func TestEstimatePerJobTracksGroundTruth(t *testing.T) {
	f := testFixture(t)
	feat := machine.CacheSizing(12)
	job := workload.GraphAnalytics

	// Ground truth: instance-weighted mean per-job reduction over all
	// scenarios containing the job.
	var sum, w float64
	for id := 0; id < f.an.Dataset.Scenarios.Len(); id++ {
		sc, err := f.an.Dataset.Scenarios.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !sc.HasJob(job) {
			continue
		}
		imp, err := perfscore.EvaluateScenario(f.cfg, feat, sc, f.cat, f.inh, perfscore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := float64(sc.Instances(job))
		sum += n * imp.JobReductionPct[job]
		w += n
	}
	truth := sum / w

	est, err := EstimatePerJob(context.Background(), f.an, f.cat, f.inh, f.cfg, feat, job, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Per-job estimates are noisier than all-job (paper observes this);
	// allow a wider band.
	if math.Abs(est.ReductionPct-truth) > 5 {
		t.Errorf("per-job estimate %v vs truth %v, want within 5 points", est.ReductionPct, truth)
	}
}

func TestEstimatePerJobFallbackUsed(t *testing.T) {
	// At least one cluster's representative should lack some HP job,
	// forcing the next-nearest fallback; the estimate must then replay a
	// scenario different from the representative.
	f := testFixture(t)
	feat := machine.DVFSCap(1.8)
	fallbackSeen := false
	for _, p := range f.cat.HPJobs() {
		est, err := EstimatePerJob(context.Background(), f.an, f.cat, f.inh, f.cfg, feat, p.Name, DefaultOptions())
		if err != nil {
			continue
		}
		repByCluster := map[int]int{}
		for _, rep := range f.an.Representatives {
			repByCluster[rep.Cluster] = rep.ScenarioID
		}
		for _, ci := range est.PerCluster {
			if repByCluster[ci.Cluster] != ci.ScenarioID {
				fallbackSeen = true
			}
		}
	}
	if !fallbackSeen {
		t.Error("no per-job estimate ever used the next-nearest fallback; fixture too uniform")
	}
}

func TestEstimatePerJobUnknownJob(t *testing.T) {
	f := testFixture(t)
	if _, err := EstimatePerJob(context.Background(), f.an, f.cat, f.inh, f.cfg, machine.Baseline(), "mystery", DefaultOptions()); err == nil {
		t.Error("unknown job did not error")
	}
}

func TestEstimateDeterministicGivenSeed(t *testing.T) {
	f := testFixture(t)
	feat := machine.SMTOff()
	a, err := EstimateAllJob(context.Background(), f.an, f.cat, f.inh, f.cfg, feat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateAllJob(context.Background(), f.an, f.cat, f.inh, f.cfg, feat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.ReductionPct != b.ReductionPct {
		t.Error("same seed produced different estimates")
	}
}
