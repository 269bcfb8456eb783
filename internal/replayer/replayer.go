// Package replayer implements FLARE's Replayer (paper Sec 4.5): it
// reconstructs the representative colocation scenarios on a feature-
// enabled testbed using load-testing benchmarks, measures each under the
// baseline and feature configurations, and aggregates the impacts into a
// single estimate weighted by cluster size.
//
// The testbed here is the contention model with a small reconstruction
// noise (replaying a recorded colocation on a fresh machine never
// reproduces it exactly); the aggregation logic is exactly the paper's.
package replayer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"flare/internal/analyzer"
	"flare/internal/fault"
	"flare/internal/machine"
	"flare/internal/obs"
	"flare/internal/perfmodel"
	"flare/internal/perfscore"
	"flare/internal/retry"
	"flare/internal/scenario"
	"flare/internal/stats"
	"flare/internal/workload"
)

// Options controls replay measurements.
type Options struct {
	// ReconstructionNoiseStd models testbed replay error per measurement.
	ReconstructionNoiseStd float64
	// Samples averages this many replays per scenario (>= 1).
	Samples int
	// Seed makes replays reproducible.
	Seed int64

	// Injector optionally injects faults at the "replay.scenario" site:
	// a real testbed replay can fail transiently (a load generator hiccup,
	// a lost measurement window) and the replayer retries it. The site is
	// evaluated *before* the scenario model consumes any replay
	// randomness, so a retried measurement is byte-identical to the one a
	// fault-free run would have produced. Nil injects nothing.
	Injector *fault.Injector
	// Retry is the per-scenario retry policy; the zero value uses
	// retry's defaults with the op name "replay.scenario", recording into
	// the registry of the context's tracer. Real evaluation errors are
	// permanent (a malformed scenario will not heal by retrying) — only
	// injected transients are retried.
	Retry retry.Policy
}

// retryPolicy names the zero-valued policy after the replay site and
// points an unset registry at the context tracer's.
func (o Options) retryPolicy(ctx context.Context) retry.Policy {
	p := o.Retry
	if p.Name == "" {
		p.Name = "replay.scenario"
	}
	if p.Registry == nil {
		p.Registry = obs.TracerFrom(ctx).Registry()
	}
	return p
}

// DefaultOptions returns replay settings with a realistic reconstruction
// error.
func DefaultOptions() Options {
	return Options{
		ReconstructionNoiseStd: 0.01,
		Samples:                3,
		Seed:                   1,
	}
}

// ClusterImpact is one representative's replayed measurement.
type ClusterImpact struct {
	Cluster      int
	ScenarioID   int
	Weight       float64
	ReductionPct float64
}

// Estimate is FLARE's feature-impact estimate.
type Estimate struct {
	Feature string
	// ReductionPct is the weighted mean HP MIPS reduction (positive =
	// performance loss), the paper's single-number summary (Fig 4 step 4).
	ReductionPct float64
	// PerCluster holds each representative's measurement (Fig 11).
	PerCluster []ClusterImpact
	// ScenariosReplayed is the evaluation cost in scenario replays.
	ScenariosReplayed int
}

// EstimateAllJob estimates a feature's comprehensive impact on all HP
// jobs from the analysis' representative scenarios. The estimate runs
// under a "replay.estimate" span with one "replay.scenario" sub-span per
// representative replay. A non-nil relaxed table, which must belong to
// the analysis' population, serves and records the representatives'
// relaxed states (see perfscore.RelaxTable); nil relaxes every replay.
func EstimateAllJob(ctx context.Context, an *analyzer.Analysis, cat *workload.Catalog,
	inh *perfscore.Inherent, relaxed *perfscore.RelaxTable, base machine.Config, feat machine.Feature,
	opts Options) (*Estimate, error) {
	strata, err := liveStrata(an, func(rep analyzer.Representative) []int {
		return []int{rep.ScenarioID}
	})
	if err != nil {
		return nil, err
	}
	est, _, err := testbed{cat, inh, relaxed, base, feat, opts}.estimate(ctx, strata, "")
	return est, err
}

// JobEstimate is FLARE's per-job feature-impact estimate (Sec 5.3,
// "Per-job impact"). ReductionPct is the instance-weighted mean per-job
// MIPS reduction; PerCluster holds only the clusters containing the job,
// each with the scenario replayed for it (the representative or a
// fallback).
type JobEstimate struct {
	Estimate
	Job string
}

// EstimatePerJob estimates a feature's impact on one HP job. When a
// cluster's representative does not contain the job, the next-nearest
// scenario to the centroid that does contain it stands in (the paper's
// fallback rule); clusters with no instance of the job at all contribute
// nothing. Cluster contributions are weighted by the number of job
// instances in the cluster — the likelihood of observing the job there.
// The estimate runs under a "replay.estimate_per_job" span; relaxed is
// as for EstimateAllJob. It builds the job's strata afresh; a caller that
// estimates one analysis repeatedly keeps a JobStrata instead.
func EstimatePerJob(ctx context.Context, an *analyzer.Analysis, cat *workload.Catalog,
	inh *perfscore.Inherent, relaxed *perfscore.RelaxTable, base machine.Config, feat machine.Feature,
	job string, opts Options) (*JobEstimate, error) {
	var js JobStrata
	return js.EstimatePerJob(ctx, an, cat, inh, relaxed, base, feat, job, opts)
}

// JobStrata memoises one analysis' per-job strata, built on a job's first
// estimate: for each representative, the job's instance count over the
// cluster and the first ranked member holding the job. They depend only
// on the analysis and the job, so every later estimate for the job reads
// them instead of rescanning the cluster members. Only jobs that pass
// checkPerJob (the catalog's HP jobs) become keys. The zero value is
// ready; a JobStrata must only ever see one analysis, which must not
// change. A JobStrata is safe for concurrent use.
type JobStrata struct {
	byJob sync.Map // job -> []stratum, never changed once stored
}

// EstimatePerJob is the package's EstimatePerJob for an, the one
// analysis js serves, reading the job's strata from js.
func (js *JobStrata) EstimatePerJob(ctx context.Context, an *analyzer.Analysis, cat *workload.Catalog,
	inh *perfscore.Inherent, relaxed *perfscore.RelaxTable, base machine.Config, feat machine.Feature,
	job string, opts Options) (*JobEstimate, error) {
	if err := checkPerJob(cat, job); err != nil {
		return nil, err
	}
	strata, err := js.strata(an, job)
	if err != nil {
		return nil, err
	}
	est, _, err := testbed{cat, inh, relaxed, base, feat, opts}.estimate(ctx, strata, job)
	if err != nil {
		return nil, err
	}
	return &JobEstimate{Estimate: *est, Job: job}, nil
}

// strata returns job's strata of an, building and recording them on the
// first request. Two first requests may both build them; the first
// stored wins, and both are equal.
func (js *JobStrata) strata(an *analyzer.Analysis, job string) ([]stratum, error) {
	if v, ok := js.byJob.Load(job); ok {
		return v.([]stratum), nil
	}
	strata, err := jobStrata(an, job)
	if err != nil {
		return nil, err
	}
	v, _ := js.byJob.LoadOrStore(job, strata)
	return v.([]stratum), nil
}

// checkPerJob rejects a per-job request for a job without a per-job
// impact: unknown to the catalog, or an LP job (LP jobs run on free
// quota and are not scored, Sec 5.1).
func checkPerJob(cat *workload.Catalog, job string) error {
	prof, err := cat.Lookup(job)
	if err != nil {
		return fmt.Errorf("replayer: %w", err)
	}
	if prof.Class != workload.ClassHP {
		return fmt.Errorf("replayer: job %s is not an HP job; per-job impacts cover HP jobs only", job)
	}
	return nil
}

// stratum is one cluster of an estimate: its aggregation weight and the
// scenarios that may stand for it, nearest to the centroid first.
type stratum struct {
	cluster    int
	weight     float64
	candidates []scenario.Scenario
}

// liveStrata builds one stratum per representative of a live analysis,
// weighted by cluster size, with the candidate scenario IDs pick chooses.
func liveStrata(an *analyzer.Analysis, pick func(analyzer.Representative) []int) ([]stratum, error) {
	if err := checkLive(an); err != nil {
		return nil, err
	}
	strata := make([]stratum, len(an.Representatives))
	for i, rep := range an.Representatives {
		ids := pick(rep)
		st := stratum{cluster: rep.Cluster, weight: rep.Weight, candidates: make([]scenario.Scenario, len(ids))}
		for k, id := range ids {
			var err error
			if st.candidates[k], err = an.Dataset.Scenarios.Get(id); err != nil {
				return nil, fmt.Errorf("replayer: %w", err)
			}
		}
		strata[i] = st
	}
	return strata, nil
}

// jobStrata builds job's stratum per representative of a live analysis:
// weighted by the job's instances over the cluster's ranked members, with
// the first member holding the job as its one candidate (none when no
// member holds it).
func jobStrata(an *analyzer.Analysis, job string) ([]stratum, error) {
	if err := checkLive(an); err != nil {
		return nil, err
	}
	strata := make([]stratum, len(an.Representatives))
	for i, rep := range an.Representatives {
		st := stratum{cluster: rep.Cluster}
		var instances int
		for _, id := range rep.Ranked {
			sc, err := an.Dataset.Scenarios.Get(id)
			if err != nil {
				return nil, fmt.Errorf("replayer: %w", err)
			}
			n := sc.Instances(job)
			if n > 0 && instances == 0 {
				st.candidates = []scenario.Scenario{sc}
			}
			instances += n
		}
		st.weight = float64(instances)
		strata[i] = st
	}
	return strata, nil
}

// checkLive rejects an analysis without representatives.
func checkLive(an *analyzer.Analysis) error {
	if an == nil || len(an.Representatives) == 0 {
		return errors.New("replayer: analysis has no representatives")
	}
	return nil
}

// testbed is what every replay runs against: the catalog and inherent
// MIPS it scores with, the relaxed-state table (nil for none), the
// baseline machine, the feature and the replay options.
type testbed struct {
	cat     *workload.Catalog
	inh     *perfscore.Inherent
	relaxed *perfscore.RelaxTable
	base    machine.Config
	feat    machine.Feature
	opts    Options
}

// estimate is the one replay loop behind every estimator (paper Sec 4.5).
// For job == "" it replays every candidate of each stratum and takes the
// mean of their all-job impacts as the cluster's impact; otherwise it
// replays the first candidate containing job for its per-job impact and
// skips strata without one or without weight. The cluster impacts are
// then averaged with the strata's weights. It also returns the standard
// error of that mean from the within-cluster variances (zero unless a
// stratum replays more than one scenario).
//
// One cursor on the process's noise tape for (opts.Seed,
// opts.ReconstructionNoiseStd) — the factors a math/rand stream seeded
// with opts.Seed gives, recorded once per process (see
// perfmodel.NewNoiseCursor) — and one perfscore.Scorer (the
// baseline/feature evaluator pair, on tb.relaxed) serve every replay in
// order, each replay passes the "replay.scenario" fault site under the
// retry policy, bound at the first replay, and the replay count is added
// to flare_replays_total in the registry of the context's tracer, if it
// carries one.
func (tb testbed) estimate(ctx context.Context, strata []stratum, job string) (*Estimate, float64, error) {
	name, mode := "replay.estimate", "all-job"
	if job != "" {
		name, mode = "replay.estimate_per_job", "per-job"
	}
	ctx, span := obs.StartSpan(ctx, name)
	defer span.End()
	span.SetAttr("feature", tb.feat.Name)
	span.SetAttr("representatives", len(strata))
	if job != "" {
		span.SetAttr("job", job)
	}

	scorer, err := perfscore.NewScorer(tb.base, tb.feat, tb.inh, tb.relaxed)
	if err != nil {
		return nil, 0, fmt.Errorf("replayer: %w", err)
	}
	var policy retry.Bound
	bound := false
	est := &Estimate{Feature: tb.feat.Name}
	sopts := perfscore.Options{NoiseStd: tb.opts.ReconstructionNoiseStd, Samples: tb.opts.Samples,
		Tape: perfmodel.NewNoiseCursor(tb.opts.Seed, tb.opts.ReconstructionNoiseStd)}
	var weightSum, variance float64
	for _, st := range strata {
		replays := st.candidates
		if job != "" {
			replays = nil
			for i, sc := range st.candidates {
				if sc.HasJob(job) && st.weight > 0 {
					replays = st.candidates[i : i+1]
					break
				}
			}
		}
		if len(replays) == 0 {
			continue // e.g. the cluster has no instance of the job
		}
		impacts := make([]float64, len(replays))
		if !bound {
			policy, bound = tb.opts.retryPolicy(ctx).Bind(), true
		}
		for i, sc := range replays {
			imp, err := tb.replay(ctx, &policy, scorer, st.cluster, sc, sopts)
			if err != nil {
				return nil, 0, fmt.Errorf("replayer: %w", err)
			}
			impacts[i] = imp.ReductionPct
			if job != "" {
				impacts[i] = scorer.JobReductionPct(job)
			}
			est.ScenariosReplayed++
		}
		mean := stats.Mean(impacts)
		est.PerCluster = append(est.PerCluster, ClusterImpact{
			Cluster:      st.cluster,
			ScenarioID:   replays[0].ID,
			Weight:       st.weight,
			ReductionPct: mean,
		})
		est.ReductionPct += st.weight * mean
		weightSum += st.weight
		if len(impacts) > 1 {
			variance += st.weight * st.weight * stats.SampleVariance(impacts) / float64(len(impacts))
		}
	}
	if weightSum == 0 && job != "" {
		return nil, 0, fmt.Errorf("replayer: no cluster contains job %s", job)
	}
	var se float64
	if weightSum > 0 {
		est.ReductionPct /= weightSum
		se = math.Sqrt(variance) / weightSum
	}
	obs.TracerFrom(ctx).Registry().Counter("flare_replays_total",
		"representative scenario replays", "mode", mode).
		Add(uint64(est.ScenariosReplayed))
	return est, se, nil
}

// replay measures one scenario with scorer through the fault site and
// the bound retry policy under a "replay.scenario" span. Faults are
// evaluated before scoring so failed attempts never move the noise
// cursor.
func (tb testbed) replay(ctx context.Context, policy *retry.Bound, scorer *perfscore.Scorer,
	cluster int, sc scenario.Scenario, sopts perfscore.Options) (perfscore.Impact, error) {
	ctx, span := obs.StartSpan(ctx, "replay.scenario")
	defer span.End()
	span.SetAttr("cluster", cluster)
	span.SetAttr("scenario_id", sc.ID)
	var imp perfscore.Impact
	err := policy.Do(ctx, func() error {
		if err := tb.opts.Injector.Err("replay.scenario"); err != nil {
			return err
		}
		var err error
		imp, err = scorer.Scenario(sc, tb.cat, sopts)
		return retry.Permanent(err)
	})
	return imp, err
}
