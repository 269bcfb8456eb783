package evaluate

import (
	"math"
	"sync"
	"testing"
	"time"

	"flare/internal/dcsim"
	"flare/internal/machine"
	"flare/internal/perfscore"
	"flare/internal/scenario"
	"flare/internal/workload"
)

type fixture struct {
	ev  *Evaluator
	set *scenario.Set
	err error
}

var (
	fixOnce sync.Once
	fix     fixture
)

func testEvaluator(t *testing.T) *Evaluator {
	t.Helper()
	fixOnce.Do(func() {
		cfg := machine.BaselineConfig(machine.DefaultShape())
		cat := workload.DefaultCatalog()

		simCfg := dcsim.DefaultConfig()
		simCfg.Duration = 10 * 24 * time.Hour
		simCfg.ResizesPerJobPerDay = 3
		trace, err := dcsim.Run(simCfg)
		if err != nil {
			fix.err = err
			return
		}
		fix.set = trace.Scenarios
		inh, err := perfscore.NewInherent(cfg, cat)
		if err != nil {
			fix.err = err
			return
		}
		fix.ev, fix.err = New(cfg, cat, inh, trace.Scenarios)
	})
	if fix.err != nil {
		t.Fatal(fix.err)
	}
	return fix.ev
}

func TestNewValidation(t *testing.T) {
	cfg := machine.BaselineConfig(machine.DefaultShape())
	cat := workload.DefaultCatalog()
	inh, err := perfscore.NewInherent(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg, cat, inh, scenario.NewSet()); err == nil {
		t.Error("empty population did not error")
	}
	if _, err := New(cfg, nil, inh, scenario.NewSet()); err == nil {
		t.Error("nil catalog did not error")
	}
}

func TestFullDatacenter(t *testing.T) {
	ev := testEvaluator(t)
	for _, feat := range machine.PaperFeatures() {
		full, err := ev.FullDatacenter(feat)
		if err != nil {
			t.Fatalf("%s: %v", feat.Name, err)
		}
		if full.Cost != fix.set.Len() {
			t.Errorf("%s: cost %d, want population %d", feat.Name, full.Cost, fix.set.Len())
		}
		if full.MeanReductionPct <= 0 {
			t.Errorf("%s: mean reduction %v, want positive", feat.Name, full.MeanReductionPct)
		}
		if full.StdReductionPct <= 0 {
			t.Errorf("%s: zero variance across scenarios is implausible", feat.Name)
		}
		if len(full.Impacts) != fix.set.Len() {
			t.Errorf("%s: %d impacts, want %d", feat.Name, len(full.Impacts), fix.set.Len())
		}
	}
}

func TestFullDatacenterCached(t *testing.T) {
	ev := testEvaluator(t)
	feat := machine.CacheSizing(12)
	a, err := ev.FullDatacenter(feat)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.FullDatacenter(feat)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanReductionPct != b.MeanReductionPct {
		t.Error("cache returned a different ground truth")
	}
}

func TestSampleDistribution(t *testing.T) {
	ev := testEvaluator(t)
	feat := machine.DVFSCap(1.8)
	full, err := ev.FullDatacenter(feat)
	if err != nil {
		t.Fatal(err)
	}

	res, err := ev.Sample(feat, 18, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != 500 {
		t.Fatalf("got %d estimates, want 500", len(res.Estimates))
	}
	// Sampling is unbiased: the mean of estimates approaches truth.
	if math.Abs(res.Mean()-full.MeanReductionPct) > 0.5 {
		t.Errorf("sampling mean %v vs truth %v", res.Mean(), full.MeanReductionPct)
	}
	// But individual trials spread: worst-case error must exceed the
	// mean error (the paper's point about unreliable single samplings).
	if res.MaxAbsError(full.MeanReductionPct) <= 0.2 {
		t.Errorf("18-sample trials are implausibly tight: max err %v", res.MaxAbsError(full.MeanReductionPct))
	}
	// Larger samples tighten the distribution.
	big, err := ev.Sample(feat, 200, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if big.MaxAbsError(full.MeanReductionPct) >= res.MaxAbsError(full.MeanReductionPct) {
		t.Error("200-sample max error not smaller than 18-sample max error")
	}
}

func TestSampleValidation(t *testing.T) {
	ev := testEvaluator(t)
	feat := machine.Baseline()
	if _, err := ev.Sample(feat, 0, 10, 1); err == nil {
		t.Error("n=0 did not error")
	}
	if _, err := ev.Sample(feat, fix.set.Len()+1, 10, 1); err == nil {
		t.Error("n > population did not error")
	}
	if _, err := ev.Sample(feat, 5, 0, 1); err == nil {
		t.Error("trials=0 did not error")
	}
}

func TestSamplePerJob(t *testing.T) {
	ev := testEvaluator(t)
	feat := machine.CacheSizing(12)
	res, err := ev.SamplePerJob(feat, workload.WebSearch, 18, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != 200 {
		t.Fatalf("got %d estimates, want 200", len(res.Estimates))
	}
	mean, _, err := ev.PerJobTruth(feat, workload.WebSearch)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mean()-mean) > 2.0 {
		t.Errorf("per-job sampling mean %v vs truth %v", res.Mean(), mean)
	}
	if _, err := ev.SamplePerJob(feat, "mystery", 5, 10, 1); err == nil {
		t.Error("unknown job did not error")
	}
}

func TestPerJobTruthAllHPJobs(t *testing.T) {
	ev := testEvaluator(t)
	feat := machine.SMTOff()
	for _, p := range workload.DefaultCatalog().HPJobs() {
		mean, std, err := ev.PerJobTruth(feat, p.Name)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if mean <= 0 || mean > 60 {
			t.Errorf("%s: per-job truth %v, want in (0, 60]", p.Name, mean)
		}
		if std < 0 {
			t.Errorf("%s: negative std", p.Name)
		}
	}
}

func TestLoadTestingDeviatesFromDatacenter(t *testing.T) {
	// The Sec 3.1 pitfall: colocation-unaware load testing must disagree
	// substantially with the in-datacenter truth for at least some jobs.
	ev := testEvaluator(t)
	feat := machine.CacheSizing(12)
	var worst float64
	for _, p := range workload.DefaultCatalog().HPJobs() {
		lt, err := ev.LoadTesting(feat, p.Name)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		truth, _, err := ev.PerJobTruth(feat, p.Name)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(lt - truth); d > worst {
			worst = d
		}
	}
	if worst < 2 {
		t.Errorf("load testing matches the datacenter within %v points for every job; the paper's pitfall should show", worst)
	}
}

func TestSamplingErrorCurveMonotone(t *testing.T) {
	ev := testEvaluator(t)
	feat := machine.DVFSCap(1.8)
	sizes := []int{18, 50, 100, 200, 400}
	curve, err := ev.SamplingErrorCurve(feat, sizes, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].ExpectedError >= curve[i-1].ExpectedError {
			t.Errorf("error curve not decreasing at n=%d", curve[i].N)
		}
	}
	// Full population: zero error.
	fullCurve, err := ev.SamplingErrorCurve(feat, []int{fix.set.Len()}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if fullCurve[0].ExpectedError > 1e-9 {
		t.Errorf("full-population expected error = %v, want 0", fullCurve[0].ExpectedError)
	}
}

func TestSamplingErrorCurveValidation(t *testing.T) {
	ev := testEvaluator(t)
	feat := machine.Baseline()
	if _, err := ev.SamplingErrorCurve(feat, nil, 0.95); err == nil {
		t.Error("empty sizes did not error")
	}
	if _, err := ev.SamplingErrorCurve(feat, []int{0}, 0.95); err == nil {
		t.Error("n=0 did not error")
	}
}

func TestCostToMatchAndComparison(t *testing.T) {
	ev := testEvaluator(t)
	feat := machine.CacheSizing(12)

	n, err := ev.CostToMatch(feat, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 18 {
		t.Errorf("sampling matches 1%% error with only %d scenarios; variance too low for the paper's regime", n)
	}

	full, err := ev.FullDatacenter(feat)
	if err != nil {
		t.Fatal(err)
	}
	// A FLARE estimate 0.3 points off truth, at a cost of 18 replays.
	cmp, err := ev.CompareCosts(feat, full.MeanReductionPct+0.3, 18)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.FullOverFLARE < 10 {
		t.Errorf("full/FLARE cost ratio = %v, want >> 1", cmp.FullOverFLARE)
	}
	if cmp.SamplingCost <= cmp.FLARECost {
		t.Errorf("sampling cost %d not above FLARE cost %d", cmp.SamplingCost, cmp.FLARECost)
	}
	if _, err := ev.CompareCosts(feat, 0, 0); err == nil {
		t.Error("zero FLARE cost did not error")
	}
	if _, err := ev.CostToMatch(feat, 0); err == nil {
		t.Error("zero target error did not error")
	}
}

func TestCanary(t *testing.T) {
	ev := testEvaluator(t)
	feat := machine.CacheSizing(12)
	full, err := ev.FullDatacenter(feat)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the trace to get per-machine attribution (the fixture only
	// kept the scenario set).
	simCfg := dcsim.DefaultConfig()
	simCfg.Duration = 10 * 24 * time.Hour
	simCfg.ResizesPerJobPerDay = 3
	trace, err := dcsim.Run(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.Canary(feat, trace.PerMachine, 2, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != 100 {
		t.Fatalf("got %d estimates, want 100", len(res.Estimates))
	}
	if res.MeanCost <= 0 {
		t.Error("canary reported zero cost")
	}
	// The canary is roughly unbiased but individual trials spread.
	if math.Abs(res.Mean()-full.MeanReductionPct) > 1.5 {
		t.Errorf("canary mean %v vs truth %v", res.Mean(), full.MeanReductionPct)
	}
	if res.MaxAbsError(full.MeanReductionPct) <= 0 {
		t.Error("canary trials implausibly exact")
	}
}

func TestCanaryValidation(t *testing.T) {
	ev := testEvaluator(t)
	feat := machine.Baseline()
	pm := [][]int{{0}, {1}}
	if _, err := ev.Canary(feat, nil, 1, 10, 1); err == nil {
		t.Error("missing attribution did not error")
	}
	if _, err := ev.Canary(feat, pm, 0, 10, 1); err == nil {
		t.Error("zero machines did not error")
	}
	if _, err := ev.Canary(feat, pm, 3, 10, 1); err == nil {
		t.Error("too many machines did not error")
	}
	if _, err := ev.Canary(feat, pm, 1, 0, 1); err == nil {
		t.Error("zero trials did not error")
	}
	if _, err := ev.Canary(feat, [][]int{{999999}}, 1, 1, 1); err == nil {
		t.Error("out-of-range scenario id did not error")
	}
}

func TestConcurrentEvaluatorUse(t *testing.T) {
	ev := testEvaluator(t)
	feats := machine.PaperFeatures()
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			feat := feats[w%len(feats)]
			if _, err := ev.FullDatacenter(feat); err != nil {
				errs <- err
				return
			}
			if _, err := ev.Sample(feat, 10, 20, int64(w)); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
