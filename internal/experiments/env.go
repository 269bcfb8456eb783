// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec 3 and 5) from the simulated datacenter. Each FigureN /
// TableN function returns a report.Table whose rows correspond to the
// series the paper plots; the bench harness at the repository root runs
// one benchmark per experiment.
package experiments

import (
	"context"
	"fmt"
	"time"

	"flare/internal/analyzer"
	"flare/internal/dcsim"
	"flare/internal/evaluate"
	"flare/internal/machine"
	"flare/internal/metrics"
	"flare/internal/perfscore"
	"flare/internal/profiler"
	"flare/internal/replayer"
	"flare/internal/scenario"
	"flare/internal/workload"
)

// EnvOptions sizes the experiment environment.
type EnvOptions struct {
	// Seed drives the whole environment.
	Seed int64
	// TraceDays is the simulated collection window; the default 28 lands
	// near the paper's 895-scenario population. Shorter values make quick
	// test environments.
	TraceDays int
	// Clusters fixes the representative count (the paper's 18); 0 selects
	// automatically from the sweep knee.
	Clusters int
	// Shape overrides the machine SKU (Sec 5.5 heterogeneous study); the
	// zero value means the Table 2 default shape.
	Shape machine.Shape
}

// DefaultEnvOptions returns the paper-scale environment settings.
func DefaultEnvOptions() EnvOptions {
	return EnvOptions{Seed: 1, TraceDays: 28, Clusters: 18}
}

// Env is the shared expensive state behind the experiments: the trace,
// the profiled dataset, the analysis, and the ground-truth evaluator.
type Env struct {
	Opts EnvOptions

	Machine  machine.Config
	Jobs     *workload.Catalog
	Metrics  *metrics.Catalog
	Trace    *dcsim.Trace
	Dataset  *profiler.Dataset
	Analysis *analyzer.Analysis
	Inherent *perfscore.Inherent
	Eval     *evaluate.Evaluator

	// Features are the paper's three evaluation features (Table 4).
	Features []machine.Feature
}

// NewEnv builds the environment: simulate the datacenter, profile every
// scenario, run the Analyzer, and prepare the ground-truth evaluator.
func NewEnv(opts EnvOptions) (*Env, error) {
	if opts.TraceDays <= 0 {
		opts.TraceDays = 28
	}
	if opts.Shape.Name == "" {
		opts.Shape = machine.DefaultShape()
	}
	env := &Env{
		Opts:     opts,
		Machine:  machine.BaselineConfig(opts.Shape),
		Jobs:     workload.DefaultCatalog(),
		Metrics:  metrics.DefaultCatalog(),
		Features: paperFeaturesFor(opts.Shape),
	}

	simCfg := dcsim.DefaultConfig()
	simCfg.Seed = opts.Seed
	simCfg.Shape = opts.Shape
	simCfg.Duration = time.Duration(opts.TraceDays) * 24 * time.Hour
	trace, err := dcsim.Run(simCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: simulating datacenter: %w", err)
	}
	env.Trace = trace

	profOpts := profiler.DefaultOptions()
	profOpts.Seed = opts.Seed
	env.Dataset, err = profiler.Collect(env.Machine, trace.Scenarios, env.Jobs, env.Metrics, profOpts)
	if err != nil {
		return nil, fmt.Errorf("experiments: profiling: %w", err)
	}

	anOpts := analyzer.DefaultOptions()
	anOpts.Seed = opts.Seed
	anOpts.Clusters = opts.Clusters
	env.Analysis, err = analyzer.Analyze(env.Dataset, anOpts)
	if err != nil {
		return nil, fmt.Errorf("experiments: analysis: %w", err)
	}

	env.Inherent, err = perfscore.NewInherent(env.Machine, env.Jobs)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	env.Eval, err = evaluate.New(env.Machine, env.Jobs, env.Inherent, trace.Scenarios)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return env, nil
}

// FLAREEstimate runs FLARE's all-job estimation for one feature.
func (env *Env) FLAREEstimate(feat machine.Feature) (*replayer.Estimate, error) {
	opts := replayer.DefaultOptions()
	opts.Seed = env.Opts.Seed
	return replayer.EstimateAllJob(context.TODO(), env.Analysis, env.Jobs, env.Inherent, env.Machine, feat, opts)
}

// FLAREPerJob runs FLARE's per-job estimation for one feature and job.
func (env *Env) FLAREPerJob(feat machine.Feature, job string) (*replayer.JobEstimate, error) {
	opts := replayer.DefaultOptions()
	opts.Seed = env.Opts.Seed
	return replayer.EstimatePerJob(context.TODO(), env.Analysis, env.Jobs, env.Inherent, env.Machine, feat, job, opts)
}

// Scenarios returns the trace's scenario population.
func (env *Env) Scenarios() *scenario.Set { return env.Trace.Scenarios }

// paperFeaturesFor returns the Table 4 feature set adapted to a shape:
// on the Table 2 default these are exactly machine.PaperFeatures(); on
// other shapes the cache and clock settings scale to stay within range
// (e.g. the Small shape's 2.6 GHz part still caps at 1.8 GHz, and cache
// sizing still cuts to 40% of the socket LLC).
func paperFeaturesFor(shape machine.Shape) []machine.Feature {
	llc := 12.0
	if shape.LLCMBPerSocket < 30 {
		llc = 0.4 * shape.LLCMBPerSocket
	}
	return []machine.Feature{
		machine.CacheSizing(llc),
		machine.DVFSCap(1.8),
		machine.SMTOff(),
	}
}
