package replayer

import (
	"context"
	"errors"
	"fmt"

	"flare/internal/analyzer"
	"flare/internal/machine"
	"flare/internal/perfscore"
	"flare/internal/stats"
	"flare/internal/workload"
)

// EstimateWithCI is EstimateAllJob plus an uncertainty quantification the
// paper leaves implicit: because FLARE's estimator is a stratified sample
// (one measurement per cluster, weighted by cluster size), replaying a few
// *extra* scenarios per cluster yields within-cluster impact variances and
// hence a standard error for the weighted estimate:
//
//	Var(est) = sum over clusters of w_c^2 * s_c^2 / n_c
//
// The extra replays multiply the evaluation cost, so the depth is a knob:
// extraPerCluster = 0 reproduces the paper's point estimate (no interval).
type EstimateWithCI struct {
	Estimate
	// CI is the normal-theory interval around the weighted estimate; only
	// meaningful when ExtraPerCluster > 0.
	CI stats.ConfidenceInterval
	// ExtraPerCluster is the additional replays performed per cluster.
	ExtraPerCluster int
}

// EstimateAllJobWithCI runs the all-job estimation replaying the
// representative plus up to extraPerCluster further ranked members of each
// cluster, and derives a confidence interval at the given level from the
// stratified variance.
func EstimateAllJobWithCI(ctx context.Context, an *analyzer.Analysis, cat *workload.Catalog,
	inh *perfscore.Inherent, base machine.Config, feat machine.Feature, extraPerCluster int,
	level float64, opts Options) (*EstimateWithCI, error) {
	if extraPerCluster < 0 {
		return nil, errors.New("replayer: negative extraPerCluster")
	}
	if level <= 0 || level >= 1 {
		return nil, fmt.Errorf("replayer: confidence level %v outside (0, 1)", level)
	}
	strata, err := liveStrata(an, func(rep analyzer.Representative) []int {
		return rep.Ranked[:min(1+extraPerCluster, len(rep.Ranked))]
	})
	if err != nil {
		return nil, err
	}
	est, se, err := testbed{cat, inh, base, feat, opts}.estimate(ctx, strata, "")
	if err != nil {
		return nil, err
	}
	z := stats.NormalQuantile(0.5 + level/2)
	return &EstimateWithCI{
		Estimate:        *est,
		ExtraPerCluster: extraPerCluster,
		CI: stats.ConfidenceInterval{
			Center: est.ReductionPct,
			Lower:  est.ReductionPct - z*se,
			Upper:  est.ReductionPct + z*se,
			Level:  level,
		},
	}, nil
}
