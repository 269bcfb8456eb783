// Operations walkthrough: running FLARE as an ongoing service rather than
// a one-off study.
//
// The lifecycle: extract representatives once, export the replay plan for
// the testbed team, keep estimating new features from the plan for free,
// monitor fresh profiler data for drift, and re-derive the plan when the
// datacenter's behaviour moves (here: a fleet migration to the Small
// machine shape).
//
//	go run ./examples/operations
package main

import (
	"context"
	"fmt"
	"log"

	"flare/internal/core"
	"flare/internal/dcsim"
	"flare/internal/drift"
	"flare/internal/machine"
	"flare/internal/metrics"
	"flare/internal/profiler"
	"flare/internal/replayer"
	"flare/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("operations: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Day 0: extract representatives and export the plan. ------------
	fmt.Println("day 0: extracting representatives from the production trace")
	trace, err := simulate(machine.DefaultShape(), 1)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Analyze.Clusters = 18 // the paper's representative count
	pipeline, err := core.New(cfg)
	if err != nil {
		return err
	}
	if err := pipeline.Profile(trace.Scenarios); err != nil {
		return err
	}
	if err := pipeline.Analyze(); err != nil {
		return err
	}
	plan, err := replayer.NewPlan(pipeline.Analysis(), machine.DefaultShape())
	if err != nil {
		return err
	}
	fmt.Printf("  exported plan: %d representatives (testbed artifact)\n", len(plan.Clusters))

	// --- Weeks 1..n: estimate every new feature from the plan. ----------
	fmt.Println("\nweekly feature reviews, straight from the plan:")
	ctx := context.Background()
	for _, feat := range machine.PaperFeatures() {
		est, err := replayer.EstimateFromPlan(ctx, plan, pipeline.Jobs(), pipeline.Inherent(),
			pipeline.Machine(), feat, replayer.DefaultOptions())
		if err != nil {
			return err
		}
		fmt.Printf("  %-9s -> %5.2f%% HP MIPS reduction (%d replays)\n",
			feat.Name, est.ReductionPct, est.ScenariosReplayed)
	}

	// One feature deserves error bars before a fleet-wide rollout.
	ci, err := replayer.EstimateAllJobWithCI(ctx, pipeline.Analysis(), pipeline.Jobs(),
		pipeline.Inherent(), pipeline.Machine(), machine.CacheSizing(12), 3, 0.95,
		replayer.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Printf("  feature1 with error bars: %.2f%% +- %.2f (95%%, %d replays)\n",
		ci.ReductionPct, ci.CI.HalfWidth(), ci.ScenariosReplayed)

	// --- Continuous monitoring: is the plan still valid? ----------------
	fmt.Println("\nmonitoring fresh profiler data for representative drift:")
	detector, err := drift.NewDetector(pipeline.Analysis(), drift.DefaultQuantile)
	if err != nil {
		return err
	}
	calibration, err := profileWindow(machine.DefaultShape(), 50)
	if err != nil {
		return err
	}
	if err := detector.Calibrate(calibration.Matrix); err != nil {
		return err
	}

	steady, err := profileWindow(machine.DefaultShape(), 99)
	if err != nil {
		return err
	}
	rep, err := detector.Assess(steady.Matrix)
	if err != nil {
		return err
	}
	fmt.Printf("  steady week:      %.1f%% novel scenarios -> drifted: %v\n",
		100*rep.NovelFraction, rep.Drifted)

	// The fleet migrates to the Small shape (Sec 5.5): drift fires.
	migrated, err := profileWindow(machine.SmallShape(), 7)
	if err != nil {
		return err
	}
	rep, err = detector.Assess(migrated.Matrix)
	if err != nil {
		return err
	}
	fmt.Printf("  after migration:  %.1f%% novel scenarios -> drifted: %v\n",
		100*rep.NovelFraction, rep.Drifted)
	if rep.Drifted {
		fmt.Println("  -> plan invalidated; re-deriving representatives on the new shape")
		smallCfg := core.DefaultConfig()
		smallCfg.Machine = machine.BaselineConfig(machine.SmallShape())
		smallPipeline, err := core.New(smallCfg)
		if err != nil {
			return err
		}
		smallTrace, err := simulate(machine.SmallShape(), 7)
		if err != nil {
			return err
		}
		if err := smallPipeline.Profile(smallTrace.Scenarios); err != nil {
			return err
		}
		if err := smallPipeline.Analyze(); err != nil {
			return err
		}
		newPlan, err := replayer.NewPlan(smallPipeline.Analysis(), machine.SmallShape())
		if err != nil {
			return err
		}
		fmt.Printf("  new plan ready: %d representatives on shape %q\n",
			len(newPlan.Clusters), newPlan.MachineShape)
	}
	return nil
}

// simulate produces a paper-scale collection window on the given shape.
func simulate(shape machine.Shape, seed int64) (*dcsim.Trace, error) {
	cfg := dcsim.DefaultConfig()
	cfg.Shape = shape
	cfg.Seed = seed
	return dcsim.Run(cfg) // the default 28-day window
}

// profileWindow collects a fresh profiled window on the given shape.
func profileWindow(shape machine.Shape, seed int64) (*profiler.Dataset, error) {
	trace, err := simulate(shape, seed)
	if err != nil {
		return nil, err
	}
	opts := profiler.DefaultOptions()
	opts.Seed = seed
	coll, err := profiler.NewCollector(machine.BaselineConfig(shape), trace.Scenarios,
		workload.DefaultCatalog(), metrics.DefaultCatalog(), opts)
	if err != nil {
		return nil, err
	}
	return coll.Collect(context.Background())
}
