// Package evaluate implements the paper's comparison methodologies: the
// full-datacenter ground truth, the random-sampling baseline (Sec 5.3),
// and conventional colocation-unaware load-testing (Sec 3.1), along with
// the evaluation cost model used for the 50x/10x overhead claims
// (Sec 5.4). FLARE itself lives in the replayer package; this package
// provides what FLARE is measured against.
package evaluate

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"flare/internal/machine"
	"flare/internal/parallel"
	"flare/internal/perfscore"
	"flare/internal/scenario"
	"flare/internal/stats"
	"flare/internal/workload"
)

// Evaluator measures features against a fixed scenario population. It is
// safe for concurrent use: the ground-truth cache is mutex-guarded and
// everything else is read-only after construction.
type Evaluator struct {
	cfg machine.Config
	cat *workload.Catalog
	inh *perfscore.Inherent
	set *scenario.Set

	// impactCache memoises per-scenario impacts per feature name, because
	// sampling and several figures resample the same ground truth.
	mu          sync.Mutex
	impactCache map[string][]perfscore.Impact
}

// New creates an evaluator over the given population.
func New(cfg machine.Config, cat *workload.Catalog, inh *perfscore.Inherent, set *scenario.Set) (*Evaluator, error) {
	if cat == nil || inh == nil || set == nil || set.Len() == 0 {
		return nil, errors.New("evaluate: missing catalog, inherent table, or population")
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("evaluate: %w", err)
	}
	return &Evaluator{
		cfg:         cfg,
		cat:         cat,
		inh:         inh,
		set:         set,
		impactCache: make(map[string][]perfscore.Impact),
	}, nil
}

// FullResult is the ground-truth evaluation of a feature: every scenario
// in the population measured.
type FullResult struct {
	Feature string
	// Impacts holds per-scenario measurements, indexed by scenario ID.
	Impacts []perfscore.Impact
	// MeanReductionPct is the population mean of per-scenario reductions
	// (the "Datacenter" bars of Fig 12).
	MeanReductionPct float64
	// StdReductionPct is the population standard deviation.
	StdReductionPct float64
	// Cost is the number of scenario evaluations spent.
	Cost int
}

// FullDatacenter measures the feature on every scenario: accurate but
// expensive (the paper's prohibitive live evaluation).
func (e *Evaluator) FullDatacenter(feat machine.Feature) (*FullResult, error) {
	impacts, err := e.scenarioImpacts(feat)
	if err != nil {
		return nil, err
	}
	reductions := make([]float64, len(impacts))
	for i, imp := range impacts {
		reductions[i] = imp.ReductionPct
	}
	return &FullResult{
		Feature:          feat.Name,
		Impacts:          impacts,
		MeanReductionPct: stats.Mean(reductions),
		StdReductionPct:  stats.StdDev(reductions),
		Cost:             len(impacts),
	}, nil
}

// scenarioImpacts computes (or returns cached) per-scenario impacts.
func (e *Evaluator) scenarioImpacts(feat machine.Feature) ([]perfscore.Impact, error) {
	e.mu.Lock()
	cached, ok := e.impactCache[feat.Name]
	e.mu.Unlock()
	if ok {
		return cached, nil
	}

	// Evaluate the population in parallel; evaluations are deterministic
	// and indexed by scenario ID, so the result is order-independent, and
	// the lowest-ID error is reported whatever the scheduling.
	n := e.set.Len()
	impacts := make([]perfscore.Impact, n)
	errs := make([]error, n)
	parallel.For(parallel.Workers(0), n, func(id int) {
		sc, err := e.set.Get(id)
		if err == nil {
			impacts[id], err = perfscore.EvaluateScenario(e.cfg, feat, sc, e.cat, e.inh, perfscore.Options{})
		}
		errs[id] = err
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("evaluate: %w", err)
		}
	}

	e.mu.Lock()
	e.impactCache[feat.Name] = impacts
	e.mu.Unlock()
	return impacts, nil
}

// PerJobTruth returns the ground-truth per-job impact: the instance-
// weighted mean reduction of the job over every scenario containing it,
// plus its standard deviation across those scenarios.
func (e *Evaluator) PerJobTruth(feat machine.Feature, job string) (mean, std float64, err error) {
	impacts, err := e.scenarioImpacts(feat)
	if err != nil {
		return 0, 0, err
	}
	var reductions []float64
	var weights []float64
	for id, imp := range impacts {
		sc, err := e.set.Get(id)
		if err != nil {
			return 0, 0, err
		}
		n := sc.Instances(job)
		if n == 0 {
			continue
		}
		reductions = append(reductions, imp.JobReductionPct[job])
		weights = append(weights, float64(n))
	}
	if len(reductions) == 0 {
		return 0, 0, fmt.Errorf("evaluate: no scenario contains job %s", job)
	}
	var sum, w float64
	for i, r := range reductions {
		sum += r * weights[i]
		w += weights[i]
	}
	return sum / w, stats.StdDev(reductions), nil
}

// SamplingResult is the distribution of estimates a random-sampling
// evaluation produces.
type SamplingResult struct {
	Feature   string
	SampleN   int       // scenarios evaluated per trial
	Trials    int       // independent sampling trials
	Estimates []float64 // one estimate per trial
	// CostPerTrial is the evaluation cost of one sampling run.
	CostPerTrial int
}

// Mean returns the mean estimate across trials.
func (r *SamplingResult) Mean() float64 { return stats.Mean(r.Estimates) }

// MaxAbsError returns the worst absolute deviation from truth across
// trials.
func (r *SamplingResult) MaxAbsError(truth float64) float64 {
	var worst float64
	for _, est := range r.Estimates {
		if d := abs(est - truth); d > worst {
			worst = d
		}
	}
	return worst
}

// Quantile returns the q-quantile of the estimate distribution.
func (r *SamplingResult) Quantile(q float64) (float64, error) {
	return stats.Quantile(r.Estimates, q)
}

// Sample evaluates the feature by averaging n randomly chosen scenarios
// (without replacement), repeated for the given number of trials (the
// paper's 1,000-trial violin plots, Fig 12a).
func (e *Evaluator) Sample(feat machine.Feature, n, trials int, seed int64) (*SamplingResult, error) {
	if n <= 0 || n > e.set.Len() {
		return nil, fmt.Errorf("evaluate: sample size %d outside [1, %d]", n, e.set.Len())
	}
	if trials <= 0 {
		return nil, errors.New("evaluate: non-positive trial count")
	}
	impacts, err := e.scenarioImpacts(feat)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	res := &SamplingResult{
		Feature:      feat.Name,
		SampleN:      n,
		Trials:       trials,
		Estimates:    make([]float64, trials),
		CostPerTrial: n,
	}
	for tr := 0; tr < trials; tr++ {
		perm := rng.Perm(len(impacts))[:n]
		var sum float64
		for _, id := range perm {
			sum += impacts[id].ReductionPct
		}
		res.Estimates[tr] = sum / float64(n)
	}
	return res, nil
}

// SamplePerJob evaluates the feature's per-job impact by sampling n
// scenarios from the subpopulation containing the job.
func (e *Evaluator) SamplePerJob(feat machine.Feature, job string, n, trials int, seed int64) (*SamplingResult, error) {
	if trials <= 0 {
		return nil, errors.New("evaluate: non-positive trial count")
	}
	impacts, err := e.scenarioImpacts(feat)
	if err != nil {
		return nil, err
	}
	ids := e.set.WithJob(job)
	if len(ids) == 0 {
		return nil, fmt.Errorf("evaluate: no scenario contains job %s", job)
	}
	if n <= 0 || n > len(ids) {
		n = len(ids) // cap at the subpopulation (paper: population is smaller per job)
	}
	rng := rand.New(rand.NewSource(seed))
	res := &SamplingResult{
		Feature:      feat.Name,
		SampleN:      n,
		Trials:       trials,
		Estimates:    make([]float64, trials),
		CostPerTrial: n,
	}
	for tr := 0; tr < trials; tr++ {
		perm := rng.Perm(len(ids))[:n]
		var sum float64
		for _, k := range perm {
			sum += impacts[ids[k]].JobReductionPct[job]
		}
		res.Estimates[tr] = sum / float64(n)
	}
	return res, nil
}

// LoadTesting measures the feature's impact on one job with a
// conventional colocation-unaware load-testing benchmark: the machine is
// populated with instances of that single service (Sec 3.1) and measured
// under both configurations.
func (e *Evaluator) LoadTesting(feat machine.Feature, job string) (float64, error) {
	prof, err := e.cat.Lookup(job)
	if err != nil {
		return 0, fmt.Errorf("evaluate: %w", err)
	}
	instances := e.cfg.VCPUs() / workload.InstanceVCPUs
	if instances < 1 {
		instances = 1
	}
	sc, err := scenario.New([]scenario.Placement{{Job: prof.Name, Instances: instances}})
	if err != nil {
		return 0, fmt.Errorf("evaluate: %w", err)
	}
	imp, err := perfscore.EvaluateScenario(e.cfg, feat, sc, e.cat, e.inh, perfscore.Options{})
	if err != nil {
		return 0, err
	}
	red, ok := imp.JobReductionPct[job]
	if !ok {
		// LP jobs have no HP score; fall back to the machine-level drop.
		return imp.ReductionPct, nil
	}
	return red, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
