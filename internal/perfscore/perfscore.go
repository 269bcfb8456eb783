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
	"slices"
	"sync"

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
	// Rand supplies randomness when NoiseStd > 0 and Tape is nil.
	Rand *rand.Rand
	// Tape, when set, supplies the noise factors instead of Rand: a
	// cursor on the recorded stream of the seed Rand would be seeded with
	// (see perfmodel.NewNoiseCursor), so the scores keep their bits. Each
	// noisy measurement advances it, as it would advance Rand.
	Tape *perfmodel.NoiseCursor
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

// RelaxTable records relaxed colocations: for a scenario ID and a
// machine configuration, the per-listing MIPS the scenario's colocation
// relaxes to at nominal load (MIPSInto without noise). That state is a
// pure function of the configuration and the scenario's placements, and
// within one population a scenario's placements never change under its
// ID, so one table serves every estimate over the population: the first
// score of a scenario on a configuration relaxes it, later scores copy
// the recorded vector and draw their noise from it. Entries are filled
// lazily and never change. A RelaxTable is safe for concurrent use.
type RelaxTable struct {
	mu   sync.Mutex
	mips map[machine.Config]map[int][]float64 // the inner maps only under mu
}

// NewRelaxTable returns an empty table.
func NewRelaxTable() *RelaxTable {
	return &RelaxTable{mips: make(map[machine.Config]map[int][]float64)}
}

// byConfig returns the table's map for cfg, creating it on first use.
// Read or write it only through get and put.
func (t *RelaxTable) byConfig(cfg machine.Config) map[int][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := t.mips[cfg]
	if byID == nil {
		byID = make(map[int][]float64)
		t.mips[cfg] = byID
	}
	return byID
}

// get returns scenario id's relaxed MIPS from byID, one of the table's
// maps, if recorded. The slice is shared: callers only read it.
func (t *RelaxTable) get(byID map[int][]float64, id int) ([]float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	mips, ok := byID[id]
	return mips, ok
}

// put records scenario id's relaxed MIPS in byID, one of the table's
// maps, keeping the table's slice. A concurrent scorer may have recorded
// the same vector first.
func (t *RelaxTable) put(byID map[int][]float64, id int, mips []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := byID[id]; !ok {
		byID[id] = mips
	}
}

// Scorer measures a feature's impact on colocations: each is modelled
// under the baseline and the feature configuration and scored from its
// HP jobs' MIPS alone. One Scorer keeps one evaluator per configuration,
// and its score buffers, across every colocation it scores, so a replay
// estimate builds the pair once instead of once per representative. A
// Scorer is not safe for concurrent use.
type Scorer struct {
	inh                  *Inherent
	base, feat           *perfmodel.Evaluator
	table                *RelaxTable       // nil relaxes every scenario
	tableBase, tableFeat map[int][]float64 // table's maps for the two configurations
	relaxBase, relaxFeat []float64         // the evaluators' relaxed MIPS

	listing            []perfmodel.Assignment // Scenario's listing buffer
	asg                []perfmodel.Assignment // the colocation scored last
	inherent           []float64              // per listing; set for HP listings
	scored             []int                  // per HP listing, its job's first listing
	jobBase, jobFeat   []float64              // per listing, summed over samples
	mipsBase, mipsFeat []float64              // one sample's per-instance MIPS
}

// NewScorer returns a Scorer for feat against the base configuration,
// scoring against inh. A non-nil table serves and records the relaxed
// state of the scenarios Scenario scores; it must only ever see the
// scenarios of one population (see RelaxTable). The table's map for each
// configuration is looked up here, once, so a score hashes only the
// scenario ID.
func NewScorer(base machine.Config, feat machine.Feature, inh *Inherent, table *RelaxTable) (*Scorer, error) {
	evBase, err := perfmodel.NewEvaluator(base)
	if err != nil {
		return nil, fmt.Errorf("perfscore: baseline: %w", err)
	}
	featCfg := feat.Apply(base)
	evFeat, err := perfmodel.NewEvaluator(featCfg)
	if err != nil {
		return nil, fmt.Errorf("perfscore: feature: %w", err)
	}
	s := &Scorer{inh: inh, base: evBase, feat: evFeat, table: table}
	if table != nil {
		s.tableBase, s.tableFeat = table.byConfig(base), table.byConfig(featCfg)
	}
	return s, nil
}

// EvaluateScenario measures a feature's impact on one colocation: the
// scenario is run (modelled) under both configurations and scored. It is
// a one-shot Scorer, and also maps each HP job to its own reduction.
func EvaluateScenario(base machine.Config, feat machine.Feature, sc scenario.Scenario,
	cat *workload.Catalog, inh *Inherent, opts Options) (Impact, error) {
	s, err := NewScorer(base, feat, inh, nil)
	if err != nil {
		return Impact{}, err
	}
	imp, err := s.Scenario(sc, cat, opts)
	if err != nil {
		return Impact{}, err
	}
	imp.JobReductionPct = s.jobReductions()
	return imp, nil
}

// EvaluateAssignments is EvaluateScenario for an explicit assignment list
// (e.g. a hybrid of real jobs and synthetic interference generators). It
// is a one-shot Scorer.
func EvaluateAssignments(base machine.Config, feat machine.Feature,
	assignments []perfmodel.Assignment, inh *Inherent, opts Options) (Impact, error) {
	s, err := NewScorer(base, feat, inh, nil)
	if err != nil {
		return Impact{}, err
	}
	return s.Assignments(assignments, opts)
}

// Scenario scores one scenario, its jobs looked up in cat. With a table
// its relaxed state under each configuration comes from the table when
// an earlier score recorded it, and is relaxed and recorded otherwise.
// Unlike Assignments it leaves Impact.JobReductionPct nil: a per-job
// replay reads its one job through JobReductionPct.
func (s *Scorer) Scenario(sc scenario.Scenario, cat *workload.Catalog, opts Options) (Impact, error) {
	s.listing = s.listing[:0]
	for _, p := range sc.Placements {
		prof, err := cat.Lookup(p.Job)
		if err != nil {
			return Impact{}, fmt.Errorf("perfscore: scenario %d: %w", sc.ID, err)
		}
		s.listing = append(s.listing, perfmodel.Assignment{Profile: prof, Instances: p.Instances})
	}
	imp, err := s.score(s.listing, sc.ID, opts)
	if err != nil {
		return Impact{}, err
	}
	imp.ScenarioID = sc.ID
	return imp, nil
}

// Assignments scores an explicit assignment list, relaxing it under both
// configurations. It retains assignments until the next call.
func (s *Scorer) Assignments(assignments []perfmodel.Assignment, opts Options) (Impact, error) {
	imp, err := s.score(assignments, -1, opts)
	if err != nil {
		return Impact{}, err
	}
	imp.JobReductionPct = s.jobReductions()
	return imp, nil
}

// JobReductionPct returns job's own per-instance reduction on the
// colocation scored last, as the JobReductionPct map of an Impact would
// hold it: 0 when job is not one of its HP jobs or its baseline score is
// not positive.
func (s *Scorer) JobReductionPct(job string) float64 {
	for k, b := range s.jobBase {
		if b > 0 && s.asg[k].Profile.Name == job {
			return 100 * (b - s.jobFeat[k]) / b
		}
	}
	return 0
}

// jobReductions maps each HP job of the colocation scored last to its
// JobReductionPct.
func (s *Scorer) jobReductions() map[string]float64 {
	out := make(map[string]float64)
	for k, b := range s.jobBase {
		if b > 0 {
			out[s.asg[k].Profile.Name] = 100 * (b - s.jobFeat[k]) / b
		}
	}
	return out
}

// score scores assignments, the listing of scenario id (-1 for none).
//
// Noise is applied after relaxation, so each configuration is relaxed
// once and the Samples noisy measurements are materialised from that one
// steady state, drawing from opts.Rand in the order baseline, feature,
// baseline, ... (or reading opts.Tape in that order) — the same draws as
// evaluating the colocation afresh per sample.
func (s *Scorer) score(assignments []perfmodel.Assignment, id int, opts Options) (Impact, error) {
	s.asg = assignments
	relaxedBase, err := s.relaxed(s.base, s.tableBase, &s.relaxBase, id)
	if err != nil {
		return Impact{}, fmt.Errorf("perfscore: baseline: %w", err)
	}
	relaxedFeat, err := s.relaxed(s.feat, s.tableFeat, &s.relaxFeat, id)
	if err != nil {
		return Impact{}, fmt.Errorf("perfscore: feature: %w", err)
	}
	if err := s.prepare(); err != nil {
		return Impact{}, err
	}
	samples := opts.Samples
	if opts.NoiseStd <= 0 || samples < 1 {
		samples = 1
	}

	var imp Impact
	mo := perfmodel.Options{NoiseStd: opts.NoiseStd, Rand: opts.Rand, Tape: opts.Tape}
	for range samples {
		if s.mipsBase, err = perfmodel.NoisyMIPS(s.mipsBase, relaxedBase, mo); err != nil {
			return Impact{}, fmt.Errorf("perfscore: baseline: %w", err)
		}
		if s.mipsFeat, err = perfmodel.NoisyMIPS(s.mipsFeat, relaxedFeat, mo); err != nil {
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
	return imp, nil
}

// relaxed returns the colocation s.asg's relaxed per-listing MIPS on
// ev's configuration: from byID, the table's map for it, when that holds
// scenario id, else relaxed by ev into *buf (and then recorded there).
func (s *Scorer) relaxed(ev *perfmodel.Evaluator, byID map[int][]float64, buf *[]float64, id int) ([]float64, error) {
	useTable := s.table != nil && id >= 0
	if useTable {
		if mips, ok := s.table.get(byID, id); ok {
			return mips, nil
		}
	}
	if err := ev.Begin(s.asg); err != nil {
		return nil, err
	}
	if err := ev.Relax(nil); err != nil {
		return nil, err
	}
	mips, err := ev.MIPSInto(*buf, perfmodel.Options{})
	if err != nil {
		return nil, err
	}
	*buf = mips
	if useTable {
		s.table.put(byID, id, slices.Clone(mips))
	}
	return mips, nil
}

// prepare sets the per-listing inherent MIPS of s.asg and zeroes the
// per-job sums. Per-job scores accumulate at each HP job's first
// listing, once per listing, as a lookup by name would.
func (s *Scorer) prepare() error {
	assignments := s.asg
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
