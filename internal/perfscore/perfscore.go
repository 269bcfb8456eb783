// Package perfscore implements the paper's performance metric (Sec 5.1):
//
//	Performance = Job MIPS / Job's Inherent MIPS
//
// where a job's inherent MIPS is measured alone on an empty machine. The
// normalisation stops inherently fast jobs from dominating aggregates.
// Scenario-level performance sums the normalised performance of every HP
// instance; LP jobs run on free quota and are excluded. A feature's
// impact on a scenario is the relative drop of this score between the
// baseline and feature configurations ("MIPS reduction %").
package perfscore

import (
	"errors"
	"fmt"
	"math/rand"

	"flare/internal/machine"
	"flare/internal/perfmodel"
	"flare/internal/scenario"
	"flare/internal/workload"
)

// Inherent caches each job's inherent MIPS on a reference configuration.
type Inherent struct {
	cfg  machine.Config
	mips map[string]float64
}

// NewInherent measures the inherent MIPS of every catalog job alone on
// the given (typically stock baseline) configuration.
func NewInherent(cfg machine.Config, cat *workload.Catalog) (*Inherent, error) {
	if cat == nil || cat.Len() == 0 {
		return nil, errors.New("perfscore: empty catalog")
	}
	inh := &Inherent{cfg: cfg, mips: make(map[string]float64, cat.Len())}
	for _, p := range cat.Profiles() {
		m, err := perfmodel.SoloMIPS(cfg, p)
		if err != nil {
			return nil, fmt.Errorf("perfscore: inherent MIPS of %s: %w", p.Name, err)
		}
		inh.mips[p.Name] = m
	}
	return inh, nil
}

// MIPS returns the inherent MIPS of the named job.
func (inh *Inherent) MIPS(job string) (float64, error) {
	m, ok := inh.mips[job]
	if !ok {
		return 0, fmt.Errorf("perfscore: no inherent MIPS for job %q", job)
	}
	return m, nil
}

// HPScoreWith aggregates the HP instances' normalised performance under
// the chosen metric; the paper's metric, MetricSumNormalized, is the sum
// over HP jobs of instances * (MIPS / inherent MIPS). A result without
// HP instances scores 0.
func (inh *Inherent) HPScoreWith(res perfmodel.Result, metric Metric) (float64, error) {
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

// JobScore returns the per-instance normalised performance of one job in
// a modelled result, or an error if the job is absent.
func (inh *Inherent) JobScore(res perfmodel.Result, job string) (float64, error) {
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

// Metric selects the multiprogram performance metric aggregating the HP
// instances' normalised performance. The paper uses the throughput-style
// sum and notes that alternatives (Eyerman & Eeckhout's system-level
// metrics) drop in freely.
type Metric int

// Aggregation metrics.
const (
	// MetricSumNormalized sums normalised progress over HP instances
	// (system throughput, the paper's choice). The zero value maps here.
	MetricSumNormalized Metric = iota + 1
	// MetricHarmonicMean takes the harmonic mean of normalised progress,
	// balancing throughput against fairness.
	MetricHarmonicMean
	// MetricWorstCase takes the minimum normalised progress, a
	// tail-oriented view.
	MetricWorstCase
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricSumNormalized:
		return "sum-normalized"
	case MetricHarmonicMean:
		return "harmonic-mean"
	case MetricWorstCase:
		return "worst-case"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Options controls scenario evaluation.
type Options struct {
	// NoiseStd adds measurement/reconstruction noise per evaluation; zero
	// is deterministic.
	NoiseStd float64
	// Samples averages this many noisy evaluations (>= 1); ignored when
	// NoiseStd is zero.
	Samples int
	// Rand supplies randomness when NoiseStd > 0.
	Rand *rand.Rand
	// Metric selects the HP aggregation; zero means MetricSumNormalized.
	Metric Metric
}

// Impact is the measured effect of a feature on one scenario.
type Impact struct {
	ScenarioID int
	Baseline   float64 // HP score under the baseline config
	Feature    float64 // HP score under the feature config
	// ReductionPct is the relative HP-score drop in percent; positive
	// means the feature loses performance.
	ReductionPct float64
	// JobReductionPct maps each HP job in the scenario to its own
	// per-instance reduction.
	JobReductionPct map[string]float64
}

// EvaluateScenario measures a feature's impact on one colocation: the
// scenario is run (modelled) under both configurations and scored.
func EvaluateScenario(base machine.Config, feat machine.Feature, sc scenario.Scenario,
	cat *workload.Catalog, inh *Inherent, opts Options) (Impact, error) {
	assignments, err := assignments(sc, cat)
	if err != nil {
		return Impact{}, err
	}
	imp, err := EvaluateAssignments(base, feat, assignments, inh, opts)
	if err != nil {
		return Impact{}, err
	}
	imp.ScenarioID = sc.ID
	return imp, nil
}

// EvaluateAssignments is EvaluateScenario for an explicit assignment list
// (e.g. a hybrid of real jobs and synthetic interference generators).
//
// Noise is applied after relaxation, so each configuration is relaxed
// once and the Samples noisy measurements are materialised from that one
// steady state, drawing from opts.Rand in the order baseline, feature,
// baseline, ... — the same draws as evaluating the colocation afresh per
// sample.
func EvaluateAssignments(base machine.Config, feat machine.Feature,
	assignments []perfmodel.Assignment, inh *Inherent, opts Options) (Impact, error) {
	evBase, err := relaxed(base, assignments)
	if err != nil {
		return Impact{}, fmt.Errorf("perfscore: baseline: %w", err)
	}
	evFeat, err := relaxed(feat.Apply(base), assignments)
	if err != nil {
		return Impact{}, fmt.Errorf("perfscore: feature: %w", err)
	}

	samples := opts.Samples
	if opts.NoiseStd <= 0 || samples < 1 {
		samples = 1
	}

	// Per-job scores accumulate at each HP job's first listing, once per
	// listing, as a lookup by name would.
	var scored []int
	inherent := make([]float64, len(assignments))
	for _, a := range assignments {
		if a.Profile.Class != workload.ClassHP {
			continue
		}
		k := 0
		for assignments[k].Profile.Name != a.Profile.Name {
			k++
		}
		if inherent[k], err = inh.MIPS(a.Profile.Name); err != nil {
			return Impact{}, err
		}
		scored = append(scored, k)
	}
	jobBase := make([]float64, len(assignments))
	jobFeat := make([]float64, len(assignments))

	var imp Impact
	var resBase, resFeat perfmodel.Result
	mo := perfmodel.Options{NoiseStd: opts.NoiseStd, Rand: opts.Rand}
	for s := 0; s < samples; s++ {
		if err := evBase.ResultInto(&resBase, mo); err != nil {
			return Impact{}, fmt.Errorf("perfscore: baseline: %w", err)
		}
		if err := evFeat.ResultInto(&resFeat, mo); err != nil {
			return Impact{}, fmt.Errorf("perfscore: feature: %w", err)
		}
		b, err := inh.HPScoreWith(resBase, opts.Metric)
		if err != nil {
			return Impact{}, err
		}
		f, err := inh.HPScoreWith(resFeat, opts.Metric)
		if err != nil {
			return Impact{}, err
		}
		imp.Baseline += b
		imp.Feature += f

		for _, k := range scored {
			jobBase[k] += resBase.Jobs[k].MIPS / inherent[k]
			jobFeat[k] += resFeat.Jobs[k].MIPS / inherent[k]
		}
	}

	imp.Baseline /= float64(samples)
	imp.Feature /= float64(samples)
	if imp.Baseline > 0 {
		imp.ReductionPct = 100 * (imp.Baseline - imp.Feature) / imp.Baseline
	}
	imp.JobReductionPct = make(map[string]float64)
	for k, b := range jobBase {
		if b > 0 {
			imp.JobReductionPct[assignments[k].Profile.Name] = 100 * (b - jobFeat[k]) / b
		}
	}
	return imp, nil
}

// relaxed returns an evaluator on cfg holding the colocation's converged
// state at nominal load.
func relaxed(cfg machine.Config, assignments []perfmodel.Assignment) (*perfmodel.Evaluator, error) {
	ev, err := perfmodel.NewEvaluator(cfg)
	if err != nil {
		return nil, err
	}
	if err := ev.Begin(assignments); err != nil {
		return nil, err
	}
	if err := ev.Relax(nil); err != nil {
		return nil, err
	}
	return ev, nil
}

func assignments(sc scenario.Scenario, cat *workload.Catalog) ([]perfmodel.Assignment, error) {
	out := make([]perfmodel.Assignment, 0, len(sc.Placements))
	for _, p := range sc.Placements {
		prof, err := cat.Lookup(p.Job)
		if err != nil {
			return nil, fmt.Errorf("perfscore: scenario %d: %w", sc.ID, err)
		}
		out = append(out, perfmodel.Assignment{Profile: prof, Instances: p.Instances})
	}
	return out, nil
}
