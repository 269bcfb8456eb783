// Scheduler change: reproduces the paper's Sec 5.6 workflow.
//
// A new datacenter scheduler does not create unseen colocations — it
// promotes desirable scenarios and prohibits undesirable ones. Because
// FLARE's dominant cost is step 1 (collecting the scenario population),
// a scheduler change can be handled by re-running only steps 3-4 on the
// re-shaped population, reusing every metric the Profiler already
// collected.
//
// This example models a contention-aware scheduler that refuses to
// produce the most memory-oversubscribed colocations, rebuilds the
// representatives from the already-profiled metrics, and re-estimates a
// feature — without a single new profiling measurement.
//
//	go run ./examples/scheduler_change
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"flare/internal/analyzer"
	"flare/internal/dcsim"
	"flare/internal/evaluate"
	"flare/internal/linalg"
	"flare/internal/machine"
	"flare/internal/metrics"
	"flare/internal/perfscore"
	"flare/internal/profiler"
	"flare/internal/replayer"
	"flare/internal/scenario"
	"flare/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scheduler_change: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := machine.BaselineConfig(machine.DefaultShape())
	jobs := workload.DefaultCatalog()
	cat := metrics.DefaultCatalog()
	feature := machine.CacheSizing(12)

	// Step 1 (expensive, done once): collect the scenario population
	// under the current scheduler.
	simCfg := dcsim.DefaultConfig()
	simCfg.Duration = 21 * 24 * time.Hour
	trace, err := dcsim.Run(simCfg)
	if err != nil {
		return err
	}
	ds, err := profiler.Collect(cfg, trace.Scenarios, jobs, cat, profiler.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Printf("collected %d scenarios under the current scheduler (step 1, done once)\n",
		trace.Scenarios.Len())

	// The new scheduler prohibits the most memory-oversubscribed
	// colocations: scenarios in the top quarter of machine memory
	// bandwidth utilisation would no longer be produced.
	bwUtil, err := ds.MetricColumn("MemBWUtil")
	if err != nil {
		return err
	}
	threshold := quantile(bwUtil, 0.75)
	keep := make([]int, 0, len(bwUtil))
	for id, u := range bwUtil {
		if u <= threshold {
			keep = append(keep, id)
		}
	}
	fmt.Printf("new contention-aware scheduler prohibits %d high-pressure scenarios (MemBWUtil > %.2f)\n",
		trace.Scenarios.Len()-len(keep), threshold)

	// Steps 3-4 only: rebuild the dataset view over the surviving
	// scenarios from the *already collected* metrics, re-cluster, and
	// re-estimate. No new profiling.
	subDS, subSet, err := subsetDataset(ds, trace.Scenarios, keep)
	if err != nil {
		return err
	}
	anOpts := analyzer.DefaultOptions()
	anOpts.Clusters = 18
	an, err := analyzer.Analyze(subDS, anOpts)
	if err != nil {
		return err
	}
	fmt.Printf("re-derived %d representatives from cached metrics (steps 3-4 only)\n",
		len(an.Representatives))

	inh, err := perfscore.NewInherent(cfg, jobs)
	if err != nil {
		return err
	}
	est, err := replayer.EstimateAllJob(context.Background(), an, jobs, inh, cfg, feature, replayer.DefaultOptions())
	if err != nil {
		return err
	}

	// Validate against the ground truth of the new population.
	ev, err := evaluate.New(cfg, jobs, inh, subSet)
	if err != nil {
		return err
	}
	full, err := ev.FullDatacenter(feature)
	if err != nil {
		return err
	}
	fmt.Printf("\n%s under the new scheduler:\n", feature.Description)
	fmt.Printf("  ground truth: %.2f%% MIPS reduction\n", full.MeanReductionPct)
	fmt.Printf("  FLARE:        %.2f%% MIPS reduction (err %.2f, %d replays, 0 new profiling runs)\n",
		est.ReductionPct, absDiff(est.ReductionPct, full.MeanReductionPct), est.ScenariosReplayed)
	return nil
}

// subsetDataset builds a dataset view over the kept scenario IDs, copying
// the profiled metric rows so no measurement is repeated.
func subsetDataset(ds *profiler.Dataset, set *scenario.Set, keep []int) (*profiler.Dataset, *scenario.Set, error) {
	subSet := scenario.NewSet()
	matrix := linalg.NewMatrix(len(keep), ds.Catalog.Len())
	jobMIPS := make([]map[string]float64, len(keep))
	for newID, oldID := range keep {
		sc, err := set.Get(oldID)
		if err != nil {
			return nil, nil, err
		}
		fresh, err := scenario.New(sc.Placements)
		if err != nil {
			return nil, nil, err
		}
		subSet.Add(fresh)
		for j := 0; j < ds.Catalog.Len(); j++ {
			matrix.Set(newID, j, ds.Matrix.At(oldID, j))
		}
		jobMIPS[newID] = ds.JobMIPS[oldID]
	}
	return &profiler.Dataset{
		Scenarios: subSet,
		Catalog:   ds.Catalog,
		Config:    ds.Config,
		Matrix:    matrix,
		JobMIPS:   jobMIPS,
	}, subSet, nil
}

func quantile(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
