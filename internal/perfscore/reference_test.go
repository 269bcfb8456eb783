package perfscore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"flare/internal/ibench"
	"flare/internal/machine"
	"flare/internal/perfmodel"
	"flare/internal/workload"
)

// refHPScore is the reference HP score of a full modelled result: the
// HP instances' normalised performance (MIPS / inherent MIPS, looked up
// by job name) collected into one slice, then aggregated under metric.
// The scoring path (hpScore over MIPSInto) must equal it bit for bit.
func refHPScore(inh *Inherent, res perfmodel.Result, metric Metric) (float64, error) {
	var normalised []float64
	for _, j := range res.Jobs {
		if j.Class != workload.ClassHP {
			continue
		}
		base, err := inh.MIPS(j.Job)
		if err != nil {
			return 0, err
		}
		perf := j.MIPS / base
		for k := 0; k < j.Instances; k++ {
			normalised = append(normalised, perf)
		}
	}
	if len(normalised) == 0 {
		return 0, nil
	}
	switch metric {
	case MetricHarmonicMean:
		var invSum float64
		for _, p := range normalised {
			if p <= 0 {
				return 0, nil
			}
			invSum += 1 / p
		}
		return float64(len(normalised)) / invSum, nil
	case MetricWorstCase:
		worst := normalised[0]
		for _, p := range normalised[1:] {
			if p < worst {
				worst = p
			}
		}
		return worst, nil
	default: // MetricSumNormalized (including the zero value)
		var sum float64
		for _, p := range normalised {
			sum += p
		}
		return sum, nil
	}
}

// refJobScore is the reference per-instance normalised performance of
// one job in a modelled result, found by name.
func refJobScore(inh *Inherent, res perfmodel.Result, job string) (float64, error) {
	base, err := inh.MIPS(job)
	if err != nil {
		return 0, err
	}
	for _, j := range res.Jobs {
		if j.Job == job {
			return j.MIPS / base, nil
		}
	}
	return 0, fmt.Errorf("perfscore: job %q not in result", job)
}

// referenceAssignments is EvaluateAssignments the one-shot way: every
// noisy sample evaluates the colocation afresh under both configurations
// into a full Result (perfmodel.Evaluate, i.e. ResultInto) and looks
// each HP job's score up by name. EvaluateAssignments and every reused
// Scorer must equal it bit for bit.
func referenceAssignments(base machine.Config, feat machine.Feature,
	assignments []perfmodel.Assignment, inh *Inherent, opts Options) (Impact, error) {
	featCfg := feat.Apply(base)
	samples := opts.Samples
	if opts.NoiseStd <= 0 || samples < 1 {
		samples = 1
	}
	imp := Impact{JobReductionPct: make(map[string]float64)}
	jobBase := make(map[string]float64)
	jobFeat := make(map[string]float64)
	for s := 0; s < samples; s++ {
		mo := perfmodel.Options{NoiseStd: opts.NoiseStd, Rand: opts.Rand}
		resBase, err := perfmodel.Evaluate(base, assignments, mo)
		if err != nil {
			return Impact{}, err
		}
		resFeat, err := perfmodel.Evaluate(featCfg, assignments, mo)
		if err != nil {
			return Impact{}, err
		}
		b, err := refHPScore(inh, resBase, opts.Metric)
		if err != nil {
			return Impact{}, err
		}
		f, err := refHPScore(inh, resFeat, opts.Metric)
		if err != nil {
			return Impact{}, err
		}
		imp.Baseline += b
		imp.Feature += f
		for _, j := range resBase.Jobs {
			if j.Class != workload.ClassHP {
				continue
			}
			sb, err := refJobScore(inh, resBase, j.Job)
			if err != nil {
				return Impact{}, err
			}
			sf, err := refJobScore(inh, resFeat, j.Job)
			if err != nil {
				return Impact{}, err
			}
			jobBase[j.Job] += sb
			jobFeat[j.Job] += sf
		}
	}
	imp.Baseline /= float64(samples)
	imp.Feature /= float64(samples)
	if imp.Baseline > 0 {
		imp.ReductionPct = 100 * (imp.Baseline - imp.Feature) / imp.Baseline
	}
	for job, b := range jobBase {
		if b > 0 {
			imp.JobReductionPct[job] = 100 * (b - jobFeat[job]) / b
		}
	}
	return imp, nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestEvaluateAssignmentsMatchesReference checks the relax-once sampling
// against the per-sample reference over noise levels, sample counts,
// metrics, HP+LP mixes, a repeated job name and an iBench-style hybrid
// list, including the state each leaves its random source in.
func TestEvaluateAssignmentsMatchesReference(t *testing.T) {
	cfg, cat, inh := fixture(t)
	lookup := func(name string) workload.Profile {
		p, err := cat.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cacheGen, err := ibench.Generator(ibench.Cache, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	streamGen, err := ibench.Generator(ibench.Stream, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	lists := map[string][]perfmodel.Assignment{
		"hp+lp": {
			{Profile: lookup(workload.GraphAnalytics), Instances: 3},
			{Profile: lookup(workload.WebSearch), Instances: 2},
			{Profile: lookup(workload.Mcf), Instances: 2},
		},
		"repeated-name": {
			{Profile: lookup(workload.DataCaching), Instances: 2},
			{Profile: lookup(workload.Libquantum), Instances: 1},
			{Profile: lookup(workload.DataCaching), Instances: 3},
			{Profile: lookup(workload.DataCaching), Instances: 1},
		},
		"ibench-hybrid": {
			{Profile: lookup(workload.InMemoryAnalytics), Instances: 2},
			{Profile: lookup(workload.DataServing), Instances: 1},
			{Profile: cacheGen, Instances: 2},
			{Profile: streamGen, Instances: 1},
		},
	}
	metrics := []Metric{0, MetricSumNormalized, MetricHarmonicMean, MetricWorstCase}
	for name, asg := range lists {
		for _, feat := range machine.PaperFeatures() {
			for _, noise := range []float64{0, 0.03} {
				for _, samples := range []int{1, 3} {
					for _, metric := range metrics {
						label := fmt.Sprintf("%s/%s/noise=%v/samples=%d/%v", name, feat.Name, noise, samples, metric)
						gotRng, wantRng := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
						got, err := EvaluateAssignments(cfg, feat, asg, inh,
							Options{NoiseStd: noise, Samples: samples, Rand: gotRng, Metric: metric})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						want, err := referenceAssignments(cfg, feat, asg, inh,
							Options{NoiseStd: noise, Samples: samples, Rand: wantRng, Metric: metric})
						if err != nil {
							t.Fatalf("%s: reference: %v", label, err)
						}
						if !sameBits(got.Baseline, want.Baseline) || !sameBits(got.Feature, want.Feature) ||
							!sameBits(got.ReductionPct, want.ReductionPct) {
							t.Errorf("%s: got (%v, %v, %v), want (%v, %v, %v)", label,
								got.Baseline, got.Feature, got.ReductionPct,
								want.Baseline, want.Feature, want.ReductionPct)
						}
						if len(got.JobReductionPct) != len(want.JobReductionPct) {
							t.Errorf("%s: %d per-job impacts, want %d", label,
								len(got.JobReductionPct), len(want.JobReductionPct))
						}
						for job, w := range want.JobReductionPct {
							if g, ok := got.JobReductionPct[job]; !ok || !sameBits(g, w) {
								t.Errorf("%s: job %s reduction %v, want %v", label, job, g, w)
							}
						}
						if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
							t.Errorf("%s: random source diverged after the call", label)
						}
					}
				}
			}
		}
	}
}

// sameImpact reports whether got equals want bit for bit.
func sameImpact(got, want Impact) bool {
	if got.ScenarioID != want.ScenarioID || !sameBits(got.Baseline, want.Baseline) ||
		!sameBits(got.Feature, want.Feature) || !sameBits(got.ReductionPct, want.ReductionPct) ||
		len(got.JobReductionPct) != len(want.JobReductionPct) {
		return false
	}
	for job, w := range want.JobReductionPct {
		if g, ok := got.JobReductionPct[job]; !ok || !sameBits(g, w) {
			return false
		}
	}
	return true
}

// TestScorerMatchesReferenceRandomColocations reuses one Scorer per
// feature across many random colocations (HP and LP jobs, repeated
// names, 1-4 instances), seeds, sample counts and all three metrics, and
// pins each impact, and the random source's next draw, against the
// ResultInto + refHPScore reference.
func TestScorerMatchesReferenceRandomColocations(t *testing.T) {
	cfg, cat, inh := fixture(t)
	profiles := cat.Profiles()
	feats := append([]machine.Feature{machine.Baseline()}, machine.PaperFeatures()...)
	scorers := make([]*Scorer, len(feats))
	for i, f := range feats {
		var err error
		if scorers[i], err = NewScorer(cfg, f, inh); err != nil {
			t.Fatal(err)
		}
	}
	metrics := []Metric{MetricSumNormalized, MetricHarmonicMean, MetricWorstCase}
	gen := rand.New(rand.NewSource(42))
	for seed := int64(0); seed < 60; seed++ {
		asg := make([]perfmodel.Assignment, 1+gen.Intn(5))
		for i := range asg {
			asg[i] = perfmodel.Assignment{Profile: profiles[gen.Intn(len(profiles))], Instances: 1 + gen.Intn(4)}
		}
		fi := gen.Intn(len(feats))
		opts := Options{NoiseStd: []float64{0, 0.01, 0.05}[seed%3], Samples: 1 + gen.Intn(3),
			Metric: metrics[seed%int64(len(metrics))]}
		label := fmt.Sprintf("seed=%d/%s/noise=%v/samples=%d/%v", seed, feats[fi].Name, opts.NoiseStd, opts.Samples, opts.Metric)

		gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		gotOpts, wantOpts := opts, opts
		gotOpts.Rand, wantOpts.Rand = gotRng, wantRng
		got, err := scorers[fi].Assignments(asg, gotOpts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := referenceAssignments(cfg, feats[fi], asg, inh, wantOpts)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		if !sameImpact(got, want) {
			t.Errorf("%s: got %+v, want %+v", label, got, want)
		}
		if gotRng.Int63() != wantRng.Int63() {
			t.Errorf("%s: random source diverged after the call", label)
		}
	}
}
