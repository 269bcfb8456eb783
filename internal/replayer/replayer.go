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
	"math/rand"

	"flare/internal/analyzer"
	"flare/internal/fault"
	"flare/internal/machine"
	"flare/internal/obs"
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
	// retry's defaults with the op name "replay.scenario". Real
	// evaluation errors are permanent (a malformed scenario will not heal
	// by retrying) — only injected transients are retried.
	Retry retry.Policy
}

// retryPolicy names the zero-valued policy after the replay site.
func (o Options) retryPolicy() retry.Policy {
	p := o.Retry
	if p.Name == "" {
		p.Name = "replay.scenario"
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
// representative replay.
func EstimateAllJob(ctx context.Context, an *analyzer.Analysis, cat *workload.Catalog,
	inh *perfscore.Inherent, base machine.Config, feat machine.Feature, opts Options) (*Estimate, error) {
	strata, err := liveStrata(an, func(rep analyzer.Representative) []int {
		return []int{rep.ScenarioID}
	})
	if err != nil {
		return nil, err
	}
	est, _, err := testbed{cat, inh, base, feat, opts}.estimate(ctx, strata, "")
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
// The estimate runs under a "replay.estimate_per_job" span.
func EstimatePerJob(ctx context.Context, an *analyzer.Analysis, cat *workload.Catalog,
	inh *perfscore.Inherent, base machine.Config, feat machine.Feature, job string,
	opts Options) (*JobEstimate, error) {
	if err := checkPerJob(cat, job); err != nil {
		return nil, err
	}
	strata, err := liveStrata(an, func(rep analyzer.Representative) []int { return rep.Ranked })
	if err != nil {
		return nil, err
	}
	for i := range strata {
		var instances int
		for _, sc := range strata[i].candidates {
			instances += sc.Instances(job)
		}
		strata[i].weight = float64(instances)
	}
	est, _, err := testbed{cat, inh, base, feat, opts}.estimate(ctx, strata, job)
	if err != nil {
		return nil, err
	}
	return &JobEstimate{Estimate: *est, Job: job}, nil
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
	if an == nil || len(an.Representatives) == 0 {
		return nil, errors.New("replayer: analysis has no representatives")
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

// testbed is what every replay runs against: the catalog and inherent
// MIPS it scores with, the baseline machine, the feature and the replay
// options.
type testbed struct {
	cat  *workload.Catalog
	inh  *perfscore.Inherent
	base machine.Config
	feat machine.Feature
	opts Options
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
// One random source seeded from opts.Seed serves every replay in order,
// each replay passes the "replay.scenario" fault site under the retry
// policy, and the replay count is added to flare_replays_total in the
// registry of the context's tracer, if it carries one.
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

	est := &Estimate{Feature: tb.feat.Name}
	rng := rand.New(rand.NewSource(tb.opts.Seed))
	sopts := perfscore.Options{NoiseStd: tb.opts.ReconstructionNoiseStd, Samples: tb.opts.Samples, Rand: rng}
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
		for i, sc := range replays {
			imp, err := tb.replay(ctx, st.cluster, sc, sopts)
			if err != nil {
				return nil, 0, fmt.Errorf("replayer: %w", err)
			}
			impacts[i] = imp.ReductionPct
			if job != "" {
				impacts[i] = imp.JobReductionPct[job]
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
	if t := obs.TracerFrom(ctx); t != nil && t.Registry() != nil {
		t.Registry().Counter("flare_replays_total",
			"representative scenario replays", "mode", mode).
			Add(uint64(est.ScenariosReplayed))
	}
	return est, se, nil
}

// replay measures one scenario through the fault site and retry policy
// under a "replay.scenario" span. Faults are evaluated before
// EvaluateScenario so failed attempts never consume replay randomness.
func (tb testbed) replay(ctx context.Context, cluster int, sc scenario.Scenario,
	sopts perfscore.Options) (perfscore.Impact, error) {
	ctx, span := obs.StartSpan(ctx, "replay.scenario")
	defer span.End()
	span.SetAttr("cluster", cluster)
	span.SetAttr("scenario_id", sc.ID)
	var imp perfscore.Impact
	err := tb.opts.retryPolicy().Do(ctx, func() error {
		if err := tb.opts.Injector.Err("replay.scenario"); err != nil {
			return err
		}
		var err error
		imp, err = perfscore.EvaluateScenario(tb.base, tb.feat, sc, tb.cat, tb.inh, sopts)
		return retry.Permanent(err)
	})
	return imp, err
}
