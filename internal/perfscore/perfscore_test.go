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

// sampleScore scores one noise-free baseline sample of asg on cfg
// through the scoring path (a Scorer's relaxed, prepare, hpScore) and also
// returns the sample's per-listing MIPS and inherent MIPS.
func sampleScore(t *testing.T, cfg machine.Config, inh *Inherent, asg []perfmodel.Assignment,
	metric Metric) (score float64, mips, inherent []float64) {
	t.Helper()
	s, err := NewScorer(cfg, machine.Baseline(), inh, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.asg = asg
	if mips, err = s.relaxed(s.base, nil, &s.relaxBase, -1); err != nil {
		t.Fatal(err)
	}
	if err := s.prepare(); err != nil {
		t.Fatal(err)
	}
	return hpScore(asg, s.inherent, mips, metric), mips, s.inherent
}

func TestHPScoreSoloJobIsOne(t *testing.T) {
	// A job alone on the reference machine performs at exactly its
	// inherent MIPS, so its normalised score is 1 per instance.
	cfg, cat, inh := fixture(t)
	p, err := cat.Lookup(workload.WebSearch)
	if err != nil {
		t.Fatal(err)
	}
	score, _, _ := sampleScore(t, cfg, inh, []perfmodel.Assignment{{Profile: p, Instances: 1}}, MetricSumNormalized)
	if math.Abs(score-1) > 1e-9 {
		t.Errorf("solo HP score = %v, want 1", score)
	}
}

func TestHPScoreIgnoresLPJobs(t *testing.T) {
	cfg, cat, inh := fixture(t)
	dc, _ := cat.Lookup(workload.DataCaching)
	mcf, _ := cat.Lookup(workload.Mcf)

	score, _, _ := sampleScore(t, cfg, inh, []perfmodel.Assignment{
		{Profile: dc, Instances: 2},
		{Profile: mcf, Instances: 4},
	}, MetricSumNormalized)
	// Only the 2 DC instances count; under interference each scores < 1.
	if score <= 0 || score > 2 {
		t.Errorf("HP score = %v, want in (0, 2] for 2 HP instances", score)
	}

	// A colocation with only LP jobs scores 0.
	zero, _, _ := sampleScore(t, cfg, inh, []perfmodel.Assignment{{Profile: mcf, Instances: 2}}, MetricSumNormalized)
	if zero != 0 {
		t.Errorf("LP-only HP score = %v, want 0", zero)
	}
}

func TestJobScore(t *testing.T) {
	cfg, cat, inh := fixture(t)
	dc, _ := cat.Lookup(workload.DataCaching)
	_, mips, inherent := sampleScore(t, cfg, inh, []perfmodel.Assignment{{Profile: dc, Instances: 1}}, MetricSumNormalized)
	if s := mips[0] / inherent[0]; math.Abs(s-1) > 1e-9 {
		t.Errorf("solo job score = %v, want 1", s)
	}
	// An HP job without an inherent MIPS cannot be scored.
	s, err := NewScorer(cfg, machine.Baseline(), &Inherent{mips: map[string]float64{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Assignments([]perfmodel.Assignment{{Profile: dc, Instances: 1}}, Options{}); err == nil {
		t.Error("job without inherent MIPS did not error")
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
	asg := []perfmodel.Assignment{
		{Profile: dc, Instances: 2},
		{Profile: mcf, Instances: 6},
	}
	sum, _, _ := sampleScore(t, cfg, inh, asg, MetricSumNormalized)
	hmean, _, _ := sampleScore(t, cfg, inh, asg, MetricHarmonicMean)
	worst, _, _ := sampleScore(t, cfg, inh, asg, MetricWorstCase)
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
	if zero, _, _ := sampleScore(t, cfg, inh, asg, 0); zero != sum {
		t.Errorf("zero metric = %v, want sum %v", zero, sum)
	}
}

func TestHPScoreWithNoHPJobs(t *testing.T) {
	cfg, cat, inh := fixture(t)
	mcf, _ := cat.Lookup(workload.Mcf)
	for _, m := range []Metric{MetricSumNormalized, MetricHarmonicMean, MetricWorstCase} {
		if got, _, _ := sampleScore(t, cfg, inh, []perfmodel.Assignment{{Profile: mcf, Instances: 2}}, m); got != 0 {
			t.Errorf("%s on LP-only colocation = %v, want 0", m, got)
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

// TestRelaxTableKeepsChecks scores through a relaxed-state table: a
// colocation Begin rejects still errors and records nothing, so it
// errors again, and noise without a random source errors on the score
// that relaxes and records the scenario and on the score that reads it.
func TestRelaxTableKeepsChecks(t *testing.T) {
	s, sc, cat, opts := replayFixture(t, NewRelaxTable())
	bad := scenario.Scenario{ID: 7, Placements: []scenario.Placement{{Job: workload.DataCaching, Instances: 0}}}
	for pass := 0; pass < 2; pass++ {
		if _, err := s.Scenario(bad, cat, opts); err == nil {
			t.Errorf("pass %d: a non-positive instance count did not error", pass)
		}
		if _, err := s.Scenario(sc, cat, Options{NoiseStd: 0.01}); err == nil {
			t.Errorf("pass %d: NoiseStd > 0 without Rand did not error", pass)
		}
	}
	if _, ok := s.table.get(s.tableBase, bad.ID); ok {
		t.Error("a rejected colocation was recorded")
	}
	if _, ok := s.table.get(s.tableFeat, sc.ID); !ok {
		t.Error("a relaxed colocation was not recorded")
	}
}
