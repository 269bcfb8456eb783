package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"flare/internal/analyzer"
	"flare/internal/mathx"
	"flare/internal/perfscore"
	"flare/internal/replayer"
	"flare/internal/report"
)

// Ablation studies for the design choices DESIGN.md calls out. Each
// returns a table comparing FLARE's all-job estimation error under the
// modified design against ground truth, for Feature 1 (cache sizing) —
// the feature with the widest per-scenario spread, hence the most
// sensitive to representative quality.

// ablationFeature picks the feature ablations are scored on.
func (env *Env) ablationFeature() int { return 0 }

// flareErrorWith re-analyzes the dataset with the given options and
// returns FLARE's absolute all-job error against ground truth.
func (env *Env) flareErrorWith(opts analyzer.Options) (absErr float64, reps int, err error) {
	an, err := analyzer.Analyze(env.Dataset, opts)
	if err != nil {
		return 0, 0, err
	}
	feat := env.Features[env.ablationFeature()]
	ropts := replayer.DefaultOptions()
	ropts.Seed = env.Opts.Seed
	est, err := replayer.EstimateAllJob(context.TODO(), an, env.Jobs, env.Inherent, env.Machine, feat, ropts)
	if err != nil {
		return 0, 0, err
	}
	full, err := env.Eval.FullDatacenter(feat)
	if err != nil {
		return 0, 0, err
	}
	return abs(est.ReductionPct - full.MeanReductionPct), len(an.Representatives), nil
}

func (env *Env) baseAnalyzerOptions() analyzer.Options {
	opts := analyzer.DefaultOptions()
	opts.Seed = env.Opts.Seed
	opts.Clusters = env.Analysis.Clustering.K
	return opts
}

// AblationClusterCount measures estimation error as the cluster count
// varies around the paper's 18.
func AblationClusterCount(env *Env, ks []int) (*report.Table, error) {
	t := report.NewTable(
		"Ablation: cluster count vs estimation error (Feature 1)",
		"clusters", "flare-abs-err",
	)
	for _, k := range ks {
		opts := env.baseAnalyzerOptions()
		opts.Clusters = k
		absErr, reps, err := env.flareErrorWith(opts)
		if err != nil {
			return nil, err
		}
		t.MustAddRow(report.I(reps), report.F(absErr, 3))
	}
	t.AddNote("cost grows linearly with clusters; accuracy saturates (paper Sec 5.4)")
	return t, nil
}

// AblationPCCount measures estimation error as the PCA variance target
// (and hence PC count) varies around the paper's 95%.
func AblationPCCount(env *Env, targets []float64) (*report.Table, error) {
	t := report.NewTable(
		"Ablation: PCA variance target vs estimation error (Feature 1)",
		"variance-target", "flare-abs-err",
	)
	for _, vt := range targets {
		opts := env.baseAnalyzerOptions()
		opts.VarianceTarget = vt
		absErr, _, err := env.flareErrorWith(opts)
		if err != nil {
			return nil, err
		}
		t.MustAddRow(report.F(vt, 2), report.F(absErr, 3))
	}
	return t, nil
}

// AblationWhitening compares estimation error with and without whitening
// the PC scores before clustering.
func AblationWhitening(env *Env) (*report.Table, error) {
	t := report.NewTable(
		"Ablation: whitening before clustering (Feature 1)",
		"whitening", "flare-abs-err",
	)
	for _, skip := range []bool{false, true} {
		opts := env.baseAnalyzerOptions()
		opts.SkipWhiten = skip
		absErr, _, err := env.flareErrorWith(opts)
		if err != nil {
			return nil, err
		}
		t.MustAddRow(boolMark(!skip), report.F(absErr, 3))
	}
	return t, nil
}

// AblationRefinement compares estimation error with and without the
// correlation-pruning refinement step.
func AblationRefinement(env *Env) (*report.Table, error) {
	t := report.NewTable(
		"Ablation: metric refinement (Feature 1)",
		"refinement", "metrics-used", "flare-abs-err",
	)
	for _, skip := range []bool{false, true} {
		opts := env.baseAnalyzerOptions()
		opts.SkipRefine = skip
		an, err := analyzer.Analyze(env.Dataset, opts)
		if err != nil {
			return nil, err
		}
		absErr, _, err := env.flareErrorWith(opts)
		if err != nil {
			return nil, err
		}
		t.MustAddRow(boolMark(!skip), report.I(len(an.RefinedNames)), report.F(absErr, 3))
	}
	return t, nil
}

// AblationRepresentativeSelection compares three ways to pick a cluster's
// stand-in scenario: nearest-to-centroid (FLARE), medoid (minimum total
// intra-cluster distance), and uniform random.
func AblationRepresentativeSelection(env *Env) (*report.Table, error) {
	feat := env.Features[env.ablationFeature()]
	full, err := env.Eval.FullDatacenter(feat)
	if err != nil {
		return nil, err
	}

	selectAndScore := func(pick func(rep analyzer.Representative) int) (float64, error) {
		var estimate, weightSum float64
		for _, rep := range env.Analysis.Representatives {
			id := pick(rep)
			sc, err := env.Scenarios().Get(id)
			if err != nil {
				return 0, err
			}
			imp, err := perfscore.EvaluateScenario(env.Machine, feat, sc, env.Jobs, env.Inherent, perfscore.Options{})
			if err != nil {
				return 0, err
			}
			estimate += rep.Weight * imp.ReductionPct
			weightSum += rep.Weight
		}
		return abs(estimate/weightSum - full.MeanReductionPct), nil
	}

	t := report.NewTable(
		"Ablation: representative selection strategy (Feature 1)",
		"strategy", "flare-abs-err",
	)

	nearest, err := selectAndScore(func(rep analyzer.Representative) int { return rep.ScenarioID })
	if err != nil {
		return nil, err
	}
	t.MustAddRow("nearest-to-centroid", report.F(nearest, 3))

	medoid, err := selectAndScore(func(rep analyzer.Representative) int { return env.medoidOf(rep) })
	if err != nil {
		return nil, err
	}
	t.MustAddRow("medoid", report.F(medoid, 3))

	// Random selection: average error over several draws.
	rng := rand.New(rand.NewSource(env.Opts.Seed))
	var randSum float64
	const draws = 10
	for d := 0; d < draws; d++ {
		e, err := selectAndScore(func(rep analyzer.Representative) int {
			return rep.Ranked[rng.Intn(len(rep.Ranked))]
		})
		if err != nil {
			return nil, err
		}
		randSum += e
	}
	t.MustAddRow(fmt.Sprintf("random-in-cluster (mean of %d)", draws), report.F(randSum/draws, 3))
	return t, nil
}

// medoidOf returns the cluster member minimising total distance to the
// other members in score space.
func (env *Env) medoidOf(rep analyzer.Representative) int {
	best, bestSum := rep.ScenarioID, -1.0
	for _, a := range rep.Ranked {
		pa := mathx.Vector(env.Analysis.Scores.Row(a))
		var sum float64
		for _, b := range rep.Ranked {
			if a == b {
				continue
			}
			sum += pa.Distance(env.Analysis.Scores.Row(b))
		}
		if bestSum < 0 || sum < bestSum {
			best, bestSum = a, sum
		}
	}
	return best
}

// AblationWeighting compares cluster-size weighting against an unweighted
// mean of the representatives' impacts.
func AblationWeighting(env *Env) (*report.Table, error) {
	feat := env.Features[env.ablationFeature()]
	full, err := env.Eval.FullDatacenter(feat)
	if err != nil {
		return nil, err
	}
	est, err := env.FLAREEstimate(feat)
	if err != nil {
		return nil, err
	}

	var unweighted float64
	for _, ci := range est.PerCluster {
		unweighted += ci.ReductionPct
	}
	unweighted /= float64(len(est.PerCluster))

	t := report.NewTable(
		"Ablation: cluster-size weighting (Feature 1)",
		"aggregation", "estimate", "abs-err",
	)
	t.MustAddRow("weighted-by-cluster-size", report.F(est.ReductionPct, 3),
		report.F(abs(est.ReductionPct-full.MeanReductionPct), 3))
	t.MustAddRow("unweighted-mean", report.F(unweighted, 3),
		report.F(abs(unweighted-full.MeanReductionPct), 3))
	return t, nil
}

// AblationClusteringMethod compares the paper's k-means against the
// hierarchical (Ward) alternative it mentions, on clustering quality and
// estimation error.
func AblationClusteringMethod(env *Env) (*report.Table, error) {
	t := report.NewTable(
		"Ablation: clustering method (Feature 1)",
		"method", "sse", "flare-abs-err",
	)
	for _, method := range []analyzer.Method{analyzer.MethodKMeans, analyzer.MethodHierarchical} {
		opts := env.baseAnalyzerOptions()
		opts.Method = method
		an, err := analyzer.Analyze(env.Dataset, opts)
		if err != nil {
			return nil, err
		}
		absErr, _, err := env.flareErrorWith(opts)
		if err != nil {
			return nil, err
		}
		t.MustAddRow(method.String(), report.F(an.Clustering.SSE, 1), report.F(absErr, 3))
	}
	t.AddNote("the paper uses k-means and notes hierarchical clustering as a valid alternative (Sec 4.4)")
	return t, nil
}
