package experiments

import (
	"context"
	"flare/internal/analyzer"
	"flare/internal/replayer"
	"flare/internal/report"
	"flare/internal/workload"
)

// ExtensionPerJobMetrics evaluates the paper's Sec 5.3 suggestion: adding
// per-job metrics to the clustering features sharpens that job's
// estimates, at the risk of inflating the feature space. The table
// compares, per feature, the target job's per-job estimation error and
// the all-job error with and without the augmentation. The target is GA
// (Graph Analytics), the most cache-sensitive HP service.
func ExtensionPerJobMetrics(env *Env) (*report.Table, error) {
	const job = workload.GraphAnalytics

	t := report.NewTable(
		"Extension: per-job metrics in clustering (target: GA)",
		"pipeline", "feature", "ga-abs-err", "alljob-abs-err",
	)
	addRows := func(label string, an *analyzer.Analysis) error {
		for _, feat := range env.Features {
			truth, _, err := env.Eval.PerJobTruth(feat, job)
			if err != nil {
				return err
			}
			full, err := env.Eval.FullDatacenter(feat)
			if err != nil {
				return err
			}
			ropts := replayer.DefaultOptions()
			ropts.Seed = env.Opts.Seed
			jest, err := replayer.EstimatePerJob(context.TODO(), an, env.Jobs, env.Inherent, nil, env.Machine, feat, job, ropts)
			if err != nil {
				return err
			}
			est, err := replayer.EstimateAllJob(context.TODO(), an, env.Jobs, env.Inherent, nil, env.Machine, feat, ropts)
			if err != nil {
				return err
			}
			t.MustAddRow(label, feat.Name,
				report.F(abs(jest.ReductionPct-truth), 3),
				report.F(abs(est.ReductionPct-full.MeanReductionPct), 3),
			)
		}
		return nil
	}

	if err := addRows("general-metrics", env.Analysis); err != nil {
		return nil, err
	}
	opts := env.baseAnalyzerOptions()
	opts.PerJobMetrics = []string{job}
	augmented, err := analyzer.AnalyzeContext(context.TODO(), env.Dataset, opts)
	if err != nil {
		return nil, err
	}
	if err := addRows("with-ga-metrics", augmented); err != nil {
		return nil, err
	}
	t.AddNote("the paper recommends per-job metrics only when a specific job's accuracy matters (Sec 5.3)")
	return t, nil
}
