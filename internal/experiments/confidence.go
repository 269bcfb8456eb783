package experiments

import (
	"context"
	"flare/internal/replayer"
	"flare/internal/report"
)

// ExtensionConfidenceIntervals quantifies the uncertainty of FLARE's
// estimator: replaying a few extra ranked members per cluster yields
// within-cluster variances and a stratified confidence interval around
// the weighted estimate — an explicit accuracy/cost knob on top of the
// paper's point estimate.
func ExtensionConfidenceIntervals(env *Env) (*report.Table, error) {
	t := report.NewTable(
		"Extension: stratified confidence intervals on FLARE estimates",
		"feature", "extra-per-cluster", "cost", "estimate", "ci-half-width", "truth", "covered",
	)
	ropts := replayer.DefaultOptions()
	ropts.Seed = env.Opts.Seed
	for _, feat := range env.Features {
		full, err := env.Eval.FullDatacenter(feat)
		if err != nil {
			return nil, err
		}
		for _, extra := range []int{0, 2, 4} {
			est, err := replayer.EstimateAllJobWithCI(context.TODO(), env.Analysis, env.Jobs, env.Inherent,
				env.Machine, feat, extra, 0.95, ropts)
			if err != nil {
				return nil, err
			}
			covered := "n/a"
			if extra > 0 {
				covered = boolMark(est.CI.Contains(full.MeanReductionPct))
			}
			t.MustAddRow(
				feat.Name,
				report.I(extra),
				report.I(est.ScenariosReplayed),
				report.F(est.ReductionPct, 2),
				report.F(est.CI.HalfWidth(), 2),
				report.F(full.MeanReductionPct, 2),
				covered,
			)
		}
	}
	t.AddNote("depth 0 is the paper's point estimate; each extra replay per cluster buys a tighter interval")
	return t, nil
}
