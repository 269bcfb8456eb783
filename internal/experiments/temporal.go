package experiments

import (
	"context"
	"flare/internal/analyzer"
	"flare/internal/metrics"
	"flare/internal/profiler"
	"flare/internal/replayer"
	"flare/internal/report"
)

// ExtensionTemporalMetrics evaluates the paper's Sec 4.1 suggestion of
// enriching scenarios with temporal information: the profiler re-collects
// the same population with per-sample load phases enabled and ±stddev
// twins of the key metrics, and the pipeline re-runs on the enriched
// matrix. The table compares metric count, selected PCs, and FLARE's
// estimation error per feature against the plain (means-only) pipeline.
func ExtensionTemporalMetrics(env *Env) (*report.Table, error) {
	cat, err := metrics.WithVariability(env.Metrics)
	if err != nil {
		return nil, err
	}
	profOpts := profiler.DefaultOptions()
	profOpts.Seed = env.Opts.Seed
	profOpts.SamplesPerScenario = 12 // enough windows to estimate a stddev
	profOpts.PhaseStd = 0.4
	ds, err := profiler.Collect(env.Machine, env.Scenarios(), env.Jobs, cat, profOpts)
	if err != nil {
		return nil, err
	}
	anOpts := analyzer.DefaultOptions()
	anOpts.Seed = env.Opts.Seed
	anOpts.Clusters = env.Analysis.Clustering.K
	an, err := analyzer.Analyze(ds, anOpts)
	if err != nil {
		return nil, err
	}

	t := report.NewTable(
		"Extension: temporal/phase metrics (paper Sec 4.1)",
		"pipeline", "raw-metrics", "refined", "pcs", "feature", "flare-abs-err",
	)
	addRows := func(label string, a *analyzer.Analysis, rawCount int) error {
		for _, feat := range env.Features {
			full, err := env.Eval.FullDatacenter(feat)
			if err != nil {
				return err
			}
			ropts := replayer.DefaultOptions()
			ropts.Seed = env.Opts.Seed
			est, err := replayer.EstimateAllJob(context.TODO(), a, env.Jobs, env.Inherent, env.Machine, feat, ropts)
			if err != nil {
				return err
			}
			t.MustAddRow(label,
				report.I(rawCount),
				report.I(len(a.RefinedNames)),
				report.I(a.PCA.NumPC),
				feat.Name,
				report.F(abs(est.ReductionPct-full.MeanReductionPct), 3),
			)
		}
		return nil
	}
	if err := addRows("means-only", env.Analysis, env.Metrics.Len()); err != nil {
		return nil, err
	}
	if err := addRows("with-temporal", an, cat.Len()); err != nil {
		return nil, err
	}
	t.AddNote("temporal stddev metrics add quasi-independent dimensions; the pipeline absorbs them unchanged")
	return t, nil
}
