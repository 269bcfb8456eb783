package experiments

import (
	"context"
	"time"

	"flare/internal/dcsim"
	"flare/internal/drift"
	"flare/internal/machine"
	"flare/internal/profiler"
	"flare/internal/report"
)

// ExtensionDriftDetection demonstrates representative staleness
// monitoring (the operational side of Sec 5.5/5.6): a detector calibrated
// on a held-out window of the training regime stays quiet on fresh
// same-regime traffic and fires when the machine shape changes.
func ExtensionDriftDetection(env *Env) (*report.Table, error) {
	det, err := drift.NewDetector(env.Analysis, drift.DefaultQuantile)
	if err != nil {
		return nil, err
	}

	collect := func(shape machine.Shape, seed int64) (*profiler.Dataset, error) {
		simCfg := dcsim.DefaultConfig()
		simCfg.Shape = shape
		simCfg.Seed = seed
		simCfg.Duration = time.Duration(env.Opts.TraceDays) * 24 * time.Hour
		trace, err := dcsim.Run(simCfg)
		if err != nil {
			return nil, err
		}
		opts := profiler.DefaultOptions()
		opts.Seed = seed
		coll, err := profiler.NewCollector(machine.BaselineConfig(shape), trace.Scenarios,
			env.Jobs, env.Metrics, opts)
		if err != nil {
			return nil, err
		}
		return coll.Collect(context.TODO())
	}

	calDS, err := collect(env.Opts.Shape, env.Opts.Seed+50)
	if err != nil {
		return nil, err
	}
	if err := det.Calibrate(calDS.Matrix); err != nil {
		return nil, err
	}

	t := report.NewTable(
		"Extension: representative staleness (drift) detection",
		"population", "scenarios", "novel-fraction", "expected", "drifted",
	)
	cases := []struct {
		name  string
		shape machine.Shape
		seed  int64
	}{
		{"same-regime", env.Opts.Shape, env.Opts.Seed + 99},
		{"small-shape", machine.SmallShape(), env.Opts.Seed + 7},
	}
	for _, c := range cases {
		ds, err := collect(c.shape, c.seed)
		if err != nil {
			return nil, err
		}
		rep, err := det.Assess(ds.Matrix)
		if err != nil {
			return nil, err
		}
		t.MustAddRow(c.name,
			report.I(rep.Scenarios),
			report.F(rep.NovelFraction, 3),
			report.F(rep.ExpectedNovel, 3),
			boolMark(rep.Drifted),
		)
	}
	t.AddNote("drift fires -> re-run Analyzer steps 3-4 (scheduler change) or re-collect per shape (Sec 5.5)")
	return t, nil
}
