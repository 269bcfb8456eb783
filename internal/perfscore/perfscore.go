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
	mips map[string]float64
}

// NewInherent measures the inherent MIPS of every catalog job alone on
// the given (typically stock baseline) configuration.
func NewInherent(cfg machine.Config, cat *workload.Catalog) (*Inherent, error) {
	if cat == nil || cat.Len() == 0 {
		return nil, errors.New("perfscore: empty catalog")
	}
	inh := &Inherent{mips: make(map[string]float64, cat.Len())}
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

// Scorer measures a feature's impact on colocations: each is modelled
// under the baseline and the feature configuration and scored from its
// HP jobs' MIPS alone. One Scorer keeps one evaluator per configuration,
// and its score buffers, across every colocation it scores, so a replay
// estimate builds the pair once instead of once per representative. A
// Scorer is not safe for concurrent use.
type Scorer struct {
	inh        *Inherent
	base, feat *perfmodel.Evaluator

	asg                []perfmodel.Assignment // Scenario's listing buffer
	inherent           []float64              // per listing; set for HP listings
	scored             []int                  // per HP listing, its job's first listing
	jobBase, jobFeat   []float64              // per listing, summed over samples
	mipsBase, mipsFeat []float64              // one sample's per-instance MIPS
}

// NewScorer returns a Scorer for feat against the base configuration,
// scoring against inh.
func NewScorer(base machine.Config, feat machine.Feature, inh *Inherent) (*Scorer, error) {
	evBase, err := perfmodel.NewEvaluator(base)
	if err != nil {
		return nil, fmt.Errorf("perfscore: baseline: %w", err)
	}
	evFeat, err := perfmodel.NewEvaluator(feat.Apply(base))
	if err != nil {
		return nil, fmt.Errorf("perfscore: feature: %w", err)
	}
	return &Scorer{inh: inh, base: evBase, feat: evFeat}, nil
}

// EvaluateScenario measures a feature's impact on one colocation: the
// scenario is run (modelled) under both configurations and scored. It is
// a one-shot Scorer.
func EvaluateScenario(base machine.Config, feat machine.Feature, sc scenario.Scenario,
	cat *workload.Catalog, inh *Inherent, opts Options) (Impact, error) {
	s, err := NewScorer(base, feat, inh)
	if err != nil {
		return Impact{}, err
	}
	return s.Scenario(sc, cat, opts)
}

// EvaluateAssignments is EvaluateScenario for an explicit assignment list
// (e.g. a hybrid of real jobs and synthetic interference generators). It
// is a one-shot Scorer.
func EvaluateAssignments(base machine.Config, feat machine.Feature,
	assignments []perfmodel.Assignment, inh *Inherent, opts Options) (Impact, error) {
	s, err := NewScorer(base, feat, inh)
	if err != nil {
		return Impact{}, err
	}
	return s.Assignments(assignments, opts)
}

// Scenario scores one scenario, its jobs looked up in cat.
func (s *Scorer) Scenario(sc scenario.Scenario, cat *workload.Catalog, opts Options) (Impact, error) {
	s.asg = s.asg[:0]
	for _, p := range sc.Placements {
		prof, err := cat.Lookup(p.Job)
		if err != nil {
			return Impact{}, fmt.Errorf("perfscore: scenario %d: %w", sc.ID, err)
		}
		s.asg = append(s.asg, perfmodel.Assignment{Profile: prof, Instances: p.Instances})
	}
	imp, err := s.Assignments(s.asg, opts)
	if err != nil {
		return Impact{}, err
	}
	imp.ScenarioID = sc.ID
	return imp, nil
}

// Assignments scores an explicit assignment list. It retains assignments
// until the next call.
//
// Noise is applied after relaxation, so each configuration is relaxed
// once and the Samples noisy measurements are materialised from that one
// steady state, drawing from opts.Rand in the order baseline, feature,
// baseline, ... — the same draws as evaluating the colocation afresh per
// sample.
func (s *Scorer) Assignments(assignments []perfmodel.Assignment, opts Options) (Impact, error) {
	if err := s.load(assignments); err != nil {
		return Impact{}, err
	}
	samples := opts.Samples
	if opts.NoiseStd <= 0 || samples < 1 {
		samples = 1
	}

	var imp Impact
	var err error
	mo := perfmodel.Options{NoiseStd: opts.NoiseStd, Rand: opts.Rand}
	for range samples {
		if s.mipsBase, err = s.base.MIPSInto(s.mipsBase, mo); err != nil {
			return Impact{}, fmt.Errorf("perfscore: baseline: %w", err)
		}
		if s.mipsFeat, err = s.feat.MIPSInto(s.mipsFeat, mo); err != nil {
			return Impact{}, fmt.Errorf("perfscore: feature: %w", err)
		}
		imp.Baseline += hpScore(assignments, s.inherent, s.mipsBase, opts.Metric)
		imp.Feature += hpScore(assignments, s.inherent, s.mipsFeat, opts.Metric)
		for _, k := range s.scored {
			s.jobBase[k] += s.mipsBase[k] / s.inherent[k]
			s.jobFeat[k] += s.mipsFeat[k] / s.inherent[k]
		}
	}

	imp.Baseline /= float64(samples)
	imp.Feature /= float64(samples)
	if imp.Baseline > 0 {
		imp.ReductionPct = 100 * (imp.Baseline - imp.Feature) / imp.Baseline
	}
	imp.JobReductionPct = make(map[string]float64)
	for k, b := range s.jobBase {
		if b > 0 {
			imp.JobReductionPct[assignments[k].Profile.Name] = 100 * (b - s.jobFeat[k]) / b
		}
	}
	return imp, nil
}

// load relaxes the colocation under both configurations and prepares
// the per-listing inherent MIPS and zeroed per-job sums. Per-job scores
// accumulate at each HP job's first listing, once per listing, as a
// lookup by name would.
func (s *Scorer) load(assignments []perfmodel.Assignment) error {
	if err := relax(s.base, assignments); err != nil {
		return fmt.Errorf("perfscore: baseline: %w", err)
	}
	if err := relax(s.feat, assignments); err != nil {
		return fmt.Errorf("perfscore: feature: %w", err)
	}
	n := len(assignments)
	s.inherent = zeroed(s.inherent, n)
	s.jobBase = zeroed(s.jobBase, n)
	s.jobFeat = zeroed(s.jobFeat, n)
	s.scored = s.scored[:0]
	for i := range assignments {
		p := &assignments[i].Profile
		if p.Class != workload.ClassHP {
			continue
		}
		m, err := s.inh.MIPS(p.Name)
		if err != nil {
			return err
		}
		k := 0
		for assignments[k].Profile.Name != p.Name {
			k++
		}
		s.inherent[i], s.inherent[k] = m, m
		s.scored = append(s.scored, k)
	}
	return nil
}

// hpScore aggregates one sample's HP instances' normalised performance,
// mips[i] / inherent[i] for every instance of each HP listing i, in
// listing order under the chosen metric; the paper's metric,
// MetricSumNormalized, is their sum. A sample without HP instances
// scores 0.
func hpScore(assignments []perfmodel.Assignment, inherent, mips []float64, metric Metric) float64 {
	var n int
	var acc float64 // the sum, the sum of inverses, or the worst
	for i := range assignments {
		a := &assignments[i]
		if a.Profile.Class != workload.ClassHP {
			continue
		}
		p := mips[i] / inherent[i]
		for k := 0; k < a.Instances; k++ {
			switch metric {
			case MetricHarmonicMean:
				if p <= 0 {
					return 0
				}
				acc += 1 / p
			case MetricWorstCase:
				if n == 0 || p < acc {
					acc = p
				}
			default: // MetricSumNormalized (including the zero value)
				acc += p
			}
			n++
		}
	}
	if n > 0 && metric == MetricHarmonicMean {
		return float64(n) / acc
	}
	return acc
}

// relax loads a colocation into ev and relaxes it at nominal load.
func relax(ev *perfmodel.Evaluator, assignments []perfmodel.Assignment) error {
	if err := ev.Begin(assignments); err != nil {
		return err
	}
	return ev.Relax(nil)
}

// zeroed returns s resized to n zeros, reusing its backing array when
// possible.
func zeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}
