package perfscore

import (
	"math"
	"math/rand"
	"testing"

	"flare/internal/machine"
	"flare/internal/perfmodel"
	"flare/internal/scenario"
	"flare/internal/workload"
)

func fixture(t *testing.T) (machine.Config, *workload.Catalog, *Inherent) {
	t.Helper()
	cfg := machine.BaselineConfig(machine.DefaultShape())
	cat := workload.DefaultCatalog()
	inh, err := NewInherent(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, cat, inh
}

func TestNewInherentCoversCatalog(t *testing.T) {
	_, cat, inh := fixture(t)
	for _, p := range cat.Profiles() {
		m, err := inh.MIPS(p.Name)
		if err != nil {
			t.Errorf("missing inherent MIPS for %s: %v", p.Name, err)
			continue
		}
		if m <= 0 {
			t.Errorf("inherent MIPS of %s = %v", p.Name, m)
		}
	}
	if _, err := inh.MIPS("nosuch"); err == nil {
		t.Error("unknown job did not error")
	}
}

func TestNewInherentEmptyCatalog(t *testing.T) {
	cfg := machine.BaselineConfig(machine.DefaultShape())
	if _, err := NewInherent(cfg, nil); err == nil {
		t.Error("nil catalog did not error")
	}
}

func TestHPScoreSoloJobIsOne(t *testing.T) {
	// A job alone on the reference machine performs at exactly its
	// inherent MIPS, so its normalised score is 1 per instance.
	cfg, cat, inh := fixture(t)
	p, err := cat.Lookup(workload.WebSearch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := perfmodel.Evaluate(cfg, []perfmodel.Assignment{{Profile: p, Instances: 1}}, perfmodel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	score, err := inh.HPScoreWith(res, MetricSumNormalized)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(score-1) > 1e-9 {
		t.Errorf("solo HP score = %v, want 1", score)
	}
}

func TestHPScoreIgnoresLPJobs(t *testing.T) {
	cfg, cat, inh := fixture(t)
	dc, _ := cat.Lookup(workload.DataCaching)
	mcf, _ := cat.Lookup(workload.Mcf)

	res, err := perfmodel.Evaluate(cfg, []perfmodel.Assignment{
		{Profile: dc, Instances: 2},
		{Profile: mcf, Instances: 4},
	}, perfmodel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	score, err := inh.HPScoreWith(res, MetricSumNormalized)
	if err != nil {
		t.Fatal(err)
	}
	// Only the 2 DC instances count; under interference each scores < 1.
	if score <= 0 || score > 2 {
		t.Errorf("HP score = %v, want in (0, 2] for 2 HP instances", score)
	}

	// A result with only LP jobs scores 0.
	lpOnly, err := perfmodel.Evaluate(cfg, []perfmodel.Assignment{{Profile: mcf, Instances: 2}}, perfmodel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := inh.HPScoreWith(lpOnly, MetricSumNormalized)
	if err != nil {
		t.Fatal(err)
	}
	if zero != 0 {
		t.Errorf("LP-only HP score = %v, want 0", zero)
	}
}

func TestJobScore(t *testing.T) {
	cfg, cat, inh := fixture(t)
	dc, _ := cat.Lookup(workload.DataCaching)
	res, err := perfmodel.Evaluate(cfg, []perfmodel.Assignment{{Profile: dc, Instances: 1}}, perfmodel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := inh.JobScore(res, workload.DataCaching)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("solo job score = %v, want 1", s)
	}
	if _, err := inh.JobScore(res, workload.Mcf); err == nil {
		t.Error("absent job did not error")
	}
}

func TestEvaluateScenarioFeatureImpacts(t *testing.T) {
	cfg, cat, inh := fixture(t)
	sc, err := scenario.New([]scenario.Placement{
		{Job: workload.GraphAnalytics, Instances: 3},
		{Job: workload.WebSearch, Instances: 2},
		{Job: workload.Mcf, Instances: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, feat := range machine.PaperFeatures() {
		imp, err := EvaluateScenario(cfg, feat, sc, cat, inh, Options{})
		if err != nil {
			t.Fatalf("%s: %v", feat.Name, err)
		}
		if imp.ReductionPct <= 0 {
			t.Errorf("%s: reduction = %v, want > 0 (features degrade performance)", feat.Name, imp.ReductionPct)
		}
		if imp.ReductionPct > 60 {
			t.Errorf("%s: reduction = %v, implausibly large", feat.Name, imp.ReductionPct)
		}
		// Per-job impacts must exist exactly for the HP jobs.
		if len(imp.JobReductionPct) != 2 {
			t.Errorf("%s: per-job impacts for %d jobs, want 2 (GA, WSC)", feat.Name, len(imp.JobReductionPct))
		}
		if _, ok := imp.JobReductionPct[workload.Mcf]; ok {
			t.Errorf("%s: LP job mcf has a per-job impact", feat.Name)
		}
	}
}

func TestEvaluateScenarioBaselineFeatureIsZero(t *testing.T) {
	cfg, cat, inh := fixture(t)
	sc, _ := scenario.New([]scenario.Placement{{Job: workload.DataServing, Instances: 2}})
	imp, err := EvaluateScenario(cfg, machine.Baseline(), sc, cat, inh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(imp.ReductionPct) > 1e-9 {
		t.Errorf("baseline feature reduction = %v, want 0", imp.ReductionPct)
	}
}

func TestEvaluateScenarioUnknownJob(t *testing.T) {
	cfg, cat, inh := fixture(t)
	sc, _ := scenario.New([]scenario.Placement{{Job: "mystery", Instances: 1}})
	if _, err := EvaluateScenario(cfg, machine.Baseline(), sc, cat, inh, Options{}); err == nil {
		t.Error("unknown job did not error")
	}
}

func TestEvaluateScenarioNoiseAveraging(t *testing.T) {
	cfg, cat, inh := fixture(t)
	sc, _ := scenario.New([]scenario.Placement{
		{Job: workload.InMemoryAnalytics, Instances: 4},
		{Job: workload.Libquantum, Instances: 4},
	})
	feat := machine.CacheSizing(12)

	det, err := EvaluateScenario(cfg, feat, sc, cat, inh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spread := func(samples int) float64 {
		var worst float64
		for seed := int64(0); seed < 15; seed++ {
			imp, err := EvaluateScenario(cfg, feat, sc, cat, inh, Options{
				NoiseStd: 0.05, Samples: samples, Rand: rand.New(rand.NewSource(seed)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(imp.ReductionPct - det.ReductionPct); d > worst {
				worst = d
			}
		}
		return worst
	}
	if s1, s16 := spread(1), spread(16); s16 >= s1 {
		t.Errorf("averaging did not tighten impact estimates: 1 sample %v, 16 samples %v", s1, s16)
	}
}

func TestHPScoreWithMetrics(t *testing.T) {
	cfg, cat, inh := fixture(t)
	dc, _ := cat.Lookup(workload.DataCaching)
	mcf, _ := cat.Lookup(workload.Mcf)
	res, err := perfmodel.Evaluate(cfg, []perfmodel.Assignment{
		{Profile: dc, Instances: 2},
		{Profile: mcf, Instances: 6},
	}, perfmodel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := inh.HPScoreWith(res, MetricSumNormalized)
	if err != nil {
		t.Fatal(err)
	}
	hmean, err := inh.HPScoreWith(res, MetricHarmonicMean)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := inh.HPScoreWith(res, MetricWorstCase)
	if err != nil {
		t.Fatal(err)
	}
	// 2 HP instances with identical normalised perf p: sum = 2p,
	// hmean = p, worst = p.
	if math.Abs(sum-2*hmean) > 1e-9 {
		t.Errorf("sum %v != 2*hmean %v for identical instances", sum, hmean)
	}
	if math.Abs(hmean-worst) > 1e-9 {
		t.Errorf("hmean %v != worst %v for identical instances", hmean, worst)
	}
	if worst <= 0 || worst >= 1 {
		t.Errorf("worst normalised perf = %v, want in (0,1) under interference", worst)
	}
	// Zero value of Metric behaves as sum-normalized.
	zero, err := inh.HPScoreWith(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if zero != sum {
		t.Errorf("zero metric = %v, want sum %v", zero, sum)
	}
}

func TestHPScoreWithNoHPJobs(t *testing.T) {
	cfg, cat, inh := fixture(t)
	mcf, _ := cat.Lookup(workload.Mcf)
	res, err := perfmodel.Evaluate(cfg, []perfmodel.Assignment{{Profile: mcf, Instances: 2}}, perfmodel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Metric{MetricSumNormalized, MetricHarmonicMean, MetricWorstCase} {
		got, err := inh.HPScoreWith(res, m)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Errorf("%s on LP-only result = %v, want 0", m, got)
		}
	}
}

func TestMetricString(t *testing.T) {
	if MetricSumNormalized.String() != "sum-normalized" ||
		MetricHarmonicMean.String() != "harmonic-mean" ||
		MetricWorstCase.String() != "worst-case" {
		t.Error("Metric.String wrong")
	}
}
