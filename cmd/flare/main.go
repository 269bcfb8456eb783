// Command flare runs the full FLARE pipeline end-to-end: simulate (or
// load) a datacenter scenario population, profile it, extract
// representative colocation scenarios, and estimate the impact of the
// paper's three features (Table 4).
//
// Usage:
//
//	flare [-days 28] [-seed 1] [-clusters 18] [-scenarios file.json] [-db-dir DIR] [-per-job] [-v] [-trace-out trace.json] [-fault-spec SPEC] [-fault-seed 1] [-log-level info] [-log-json]
//
// With -scenarios, the population is loaded from a JSON file written by
// the dcsim command instead of being re-simulated. With -db-dir, the
// profiled dataset is recorded in a durable metric database (WAL +
// segment store) under that directory for later inspection — e.g. by
// flare-server's /api/db endpoints. With -trace-out, the run's span tree
// (every pipeline stage with timings and attributes) is written as JSON;
// -v additionally prints a per-stage timing summary, so batch runs get
// the same visibility as the server's /api/trace.
//
// With -fault-spec, deterministic faults are injected at the named sites
// (dcsim machine failures, store write errors, replay transients — see
// internal/fault for the grammar) and the recorded fault schedule is
// printed after the run. The same -seed, -fault-seed, and -fault-spec
// always reproduce the byte-identical run, faults included.
//
// Result tables print to stdout; progress and diagnostics are
// structured log events (internal/obs) on stderr, so piping stdout
// captures clean results. -log-level debug turns up detail and
// -log-json switches diagnostics to one JSON object per line.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"flare/internal/clustertrace"
	"flare/internal/core"
	"flare/internal/dcsim"
	"flare/internal/fault"
	"flare/internal/machine"
	"flare/internal/metricdb"
	"flare/internal/obs"
	"flare/internal/perfscore"
	"flare/internal/profiler"
	"flare/internal/replayer"
	"flare/internal/scenario"
	"flare/internal/store"
	"flare/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flare:", err)
		os.Exit(1)
	}
}

func run() error {
	days := flag.Int("days", 28, "simulated collection window in days (ignored with -scenarios/-trace-csv)")
	seed := flag.Int64("seed", 1, "random seed for the whole pipeline")
	clusters := flag.Int("clusters", 18, "representative count; 0 selects automatically from the sweep knee")
	scenariosPath := flag.String("scenarios", "", "load the scenario population from this JSON file")
	traceCSV := flag.String("trace-csv", "", "load the population from a cluster-trace task-event CSV")
	perJob := flag.Bool("per-job", false, "also print per-HP-job impact estimates")
	verbose := flag.Bool("v", false, "print the PC interpretations and representative scenarios")
	planOut := flag.String("plan-out", "", "write the replay plan (representatives + weights) to this JSON file")
	planIn := flag.String("plan", "", "skip profiling/analysis and estimate from a previously exported plan")
	dbDir := flag.String("db-dir", "", "record the profiled dataset in a durable metric database at this directory")
	catalogPath := flag.String("catalog", "", "load a site-specific job catalog from this JSON file")
	catalogOut := flag.String("catalog-out", "", "write the default job catalog as JSON (template for -catalog) and exit")
	traceOut := flag.String("trace-out", "", "write the run's span-tree telemetry to this JSON file")
	faultSpec := flag.String("fault-spec", "",
		`inject deterministic faults, e.g. "store.wal.append=error@0.01;dcsim.machine.fail=error@0.02" (see internal/fault)`)
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault schedule; equal seeds give identical schedules")
	logLevel := flag.String("log-level", "info", "minimum diagnostic severity: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit diagnostics as one JSON object per line")
	flag.Parse()

	lv, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	// Diagnostics go to stderr as structured events; result tables below
	// stay on stdout so `flare > results.txt` captures clean output.
	logger := obs.NewLogger(os.Stderr, obs.LoggerOptions{Level: lv, JSON: *logJSON})

	if *catalogOut != "" {
		f, err := os.Create(*catalogOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := workload.DefaultCatalog().WriteJSON(f); err != nil {
			return err
		}
		logger.Info("wrote default job catalog", obs.KV("path", *catalogOut))
		return nil
	}

	if *planIn != "" {
		return estimateFromPlan(*planIn, *seed, *perJob, logger)
	}

	var inj *fault.Injector
	if *faultSpec != "" {
		rules, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			return err
		}
		inj, err = fault.New(rules, *faultSeed, nil)
		if err != nil {
			return err
		}
	}

	// The whole run is one root span; each stage below nests under it.
	tracer := obs.NewTracer(obs.NewRegistry())
	ctx := obs.WithTracer(context.Background(), tracer)
	ctx, root := obs.StartSpan(ctx, "flare.run")

	// Every stage below runs inside the root span. The closure's deferred
	// End guarantees the span closes — and the -trace-out / -v telemetry
	// below stays usable — even when a stage fails with an early return.
	if err := func() error {
		defer root.End()

		set, err := loadScenariosContext(ctx, *scenariosPath, *traceCSV, *days, *seed, inj, logger)
		if err != nil {
			return err
		}
		root.SetAttr("scenarios", set.Len())
		logger.Info("scenario population loaded", obs.KV("colocations", set.Len()))

		cfg := core.DefaultConfig()
		cfg.Profile.Seed = *seed
		cfg.Analyze.Seed = *seed
		cfg.Analyze.Clusters = *clusters
		cfg.Replay.Seed = *seed
		cfg.Replay.Injector = inj
		if *catalogPath != "" {
			f, err := os.Open(*catalogPath)
			if err != nil {
				return err
			}
			cat, err := workload.ReadJSON(f)
			f.Close()
			if err != nil {
				return err
			}
			cfg.Jobs = cat
			logger.Info("loaded job catalog", obs.KV("profiles", cat.Len()), obs.KV("path", *catalogPath))
		}

		p, err := core.New(cfg)
		if err != nil {
			return err
		}
		logger.Info("profiling every scenario (step 1)")
		if err := p.ProfileContext(ctx, set); err != nil {
			return err
		}
		logger.Info("constructing high-level metrics and clustering (steps 2-3)")
		if err := p.AnalyzeContext(ctx); err != nil {
			return err
		}

		if *dbDir != "" {
			stOpts := store.DefaultOptions()
			stOpts.Injector = inj
			st, err := store.Open(*dbDir, stOpts)
			if err != nil {
				return err
			}
			db, err := metricdb.OpenDB(st)
			if err != nil {
				st.Close()
				return err
			}
			if profiler.Stored(db) {
				logger.Info("metric database already holds a dataset; not re-recording", obs.KV("dir", *dbDir))
				if err := st.Close(); err != nil {
					return err
				}
			} else {
				if err := p.PersistDatasetContext(ctx, db); err != nil {
					st.Close()
					return err
				}
				if err := st.Close(); err != nil {
					return err
				}
				logger.Info("recorded profiled dataset", obs.KV("dir", *dbDir))
			}
		}

		an := p.Analysis()
		fmt.Printf("  refined metrics: %d of %d raw\n", len(an.RefinedNames), cfg.Metrics.Len())
		fmt.Printf("  principal components: %d (>= 95%% variance)\n", an.PCA.NumPC)
		fmt.Printf("  clusters / representatives: %d\n", len(an.Representatives))

		if *verbose {
			fmt.Println("\nhigh-level metric interpretations (Fig 8):")
			for _, lbl := range an.Labels {
				fmt.Printf("  PC%-2d (%.1f%%): %s\n", lbl.Index, 100*lbl.Explained, lbl.Interpretation)
			}
			fmt.Println("\nrepresentative scenarios:")
			for _, rep := range an.Representatives {
				sc, err := set.Get(rep.ScenarioID)
				if err != nil {
					return err
				}
				fmt.Printf("  cluster %-2d (weight %4.1f%%): %s\n", rep.Cluster, 100*rep.Weight, sc.Key())
			}
		}

		if *planOut != "" {
			plan, err := replayer.NewPlan(an, cfg.Machine.Shape)
			if err != nil {
				return err
			}
			f, err := os.Create(*planOut)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := plan.WriteJSON(f); err != nil {
				return err
			}
			logger.Info("wrote replay plan", obs.KV("path", *planOut))
		}

		fmt.Println("\nestimating feature impacts with the representatives (step 4):")
		for _, feat := range machine.PaperFeatures() {
			est, err := p.Snapshot().EvaluateFeature(ctx, feat)
			if err != nil {
				return err
			}
			fmt.Printf("  %-9s %-45s MIPS reduction %5.2f%%  (cost: %d replays)\n",
				feat.Name+":", feat.Description, est.ReductionPct, est.ScenariosReplayed)

			if !*perJob {
				continue
			}
			for _, prof := range cfg.Jobs.HPJobs() {
				jest, err := p.Snapshot().EvaluateFeatureForJob(ctx, feat, prof.Name)
				if err != nil {
					return err
				}
				fmt.Printf("      %-4s %5.2f%%\n", prof.Name, jest.ReductionPct)
			}
		}
		return nil
	}(); err != nil {
		return err
	}

	if *verbose {
		fmt.Println("\nstage timings:")
		for _, r := range tracer.Snapshot() {
			printStageTimings(r, 1)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := tracer.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		logger.Info("wrote span-tree telemetry", obs.KV("path", *traceOut))
	}
	if inj != nil {
		fmt.Printf("\nfault schedule (seed %d, %d injected):\n%s",
			*faultSeed, inj.Injected(), inj.ScheduleString())
	}
	return nil
}

// printStageTimings renders one span subtree as an indented duration
// summary. Runs of identically named siblings (per-representative
// replays) are folded into one "xN" line to keep -v output readable.
func printStageTimings(s obs.SpanSnapshot, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Printf("%s%-*s %9.1f ms\n", indent, 34-2*depth, s.Name, s.DurationMs)
	for i := 0; i < len(s.Children); {
		j := i
		var totalMs float64
		for j < len(s.Children) && s.Children[j].Name == s.Children[i].Name {
			totalMs += s.Children[j].DurationMs
			j++
		}
		if j-i > 1 {
			name := fmt.Sprintf("%s x%d", s.Children[i].Name, j-i)
			fmt.Printf("%s  %-*s %9.1f ms\n", indent, 34-2*(depth+1), name, totalMs)
		} else {
			printStageTimings(s.Children[i], depth+1)
		}
		i = j
	}
}

// estimateFromPlan evaluates the paper features against an exported plan:
// no profiling, no analysis, just the representative replays.
func estimateFromPlan(path string, seed int64, perJob bool, logger *obs.Logger) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	plan, err := replayer.ReadPlanJSON(f)
	if err != nil {
		return err
	}
	logger.Info("loaded plan",
		obs.KV("representatives", len(plan.Clusters)), obs.KV("shape", plan.MachineShape))

	cfg := core.DefaultConfig()
	if plan.MachineShape == machine.SmallShape().Name {
		cfg.Machine = machine.BaselineConfig(machine.SmallShape())
	}
	inh, err := perfscore.NewInherent(cfg.Machine, cfg.Jobs)
	if err != nil {
		return err
	}
	ropts := replayer.DefaultOptions()
	ropts.Seed = seed
	for _, feat := range machine.PaperFeatures() {
		est, err := replayer.EstimateFromPlan(context.Background(), plan, cfg.Jobs, inh, cfg.Machine, feat, ropts)
		if err != nil {
			return err
		}
		fmt.Printf("  %-9s %-45s MIPS reduction %5.2f%%  (cost: %d replays)\n",
			feat.Name+":", feat.Description, est.ReductionPct, est.ScenariosReplayed)
		if !perJob {
			continue
		}
		for _, prof := range cfg.Jobs.HPJobs() {
			jest, err := replayer.EstimatePerJobFromPlan(context.Background(), plan, cfg.Jobs, inh, cfg.Machine, feat, prof.Name, ropts)
			if err != nil {
				fmt.Printf("      %-4s (no coverage: %v)\n", prof.Name, err)
				continue
			}
			fmt.Printf("      %-4s %5.2f%%\n", prof.Name, jest.ReductionPct)
		}
	}
	return nil
}

func loadScenariosContext(ctx context.Context, path, traceCSV string, days int, seed int64,
	inj *fault.Injector, logger *obs.Logger) (*scenario.Set, error) {
	_, span := obs.StartSpan(ctx, "flare.load_scenarios")
	defer span.End()
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return scenario.ReadJSON(f)
	}
	if traceCSV != "" {
		f, err := os.Open(traceCSV)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		events, err := clustertrace.ParseCSV(f)
		if err != nil {
			return nil, err
		}
		set, _, err := clustertrace.Replay(events, 0)
		return set, err
	}
	cfg := dcsim.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = time.Duration(days) * 24 * time.Hour
	cfg.Faults = inj
	logger.Info("simulating datacenter operation", obs.KV("days", days))
	trace, err := dcsim.Run(cfg)
	if err != nil {
		return nil, err
	}
	return trace.Scenarios, nil
}
