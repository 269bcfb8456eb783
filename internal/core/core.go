// Package core is FLARE's public API: a Pipeline that wires the Profiler,
// Analyzer, and Replayer together (paper Fig 4) so a user can go from a
// scenario population to feature-impact estimates in three calls:
//
//	p, _ := core.New(core.DefaultConfig())
//	_ = p.Profile(scenarios)       // step 1: collect & refine metrics
//	_ = p.Analyze()                // steps 2-3: PCs, clusters, representatives
//	est, _ := p.EvaluateFeature(machine.CacheSizing(12)) // step 4: replay
//
// The pipeline is deterministic given its seeds and safe to reuse across
// features (profiling and analysis are done once; only replay repeats).
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"flare/internal/analyzer"
	"flare/internal/drift"
	"flare/internal/linalg"
	"flare/internal/machine"
	"flare/internal/metricdb"
	"flare/internal/metrics"
	"flare/internal/obs"
	"flare/internal/perfscore"
	"flare/internal/profiler"
	"flare/internal/replayer"
	"flare/internal/scenario"
	"flare/internal/workload"
)

// Config assembles the pipeline's components and options.
type Config struct {
	// Machine is the baseline configuration scenarios are measured on.
	Machine machine.Config
	// Jobs is the workload catalog scenarios reference.
	Jobs *workload.Catalog
	// Metrics is the raw metric catalog the Profiler collects.
	Metrics *metrics.Catalog

	Profile profiler.Options
	Analyze analyzer.Options
	Replay  replayer.Options
}

// DefaultConfig returns the paper's setup: the Table 2 machine, Table 3
// jobs, the Fig 6 metric catalog, and default options throughout.
func DefaultConfig() Config {
	return Config{
		Machine: machine.BaselineConfig(machine.DefaultShape()),
		Jobs:    workload.DefaultCatalog(),
		Metrics: metrics.DefaultCatalog(),
		Profile: profiler.DefaultOptions(),
		Analyze: analyzer.DefaultOptions(),
		Replay:  replayer.DefaultOptions(),
	}
}

// Pipeline is a configured FLARE instance. Create with New; methods must
// be called in order Profile -> Analyze -> Evaluate*.
type Pipeline struct {
	cfg      Config
	inherent *perfscore.Inherent
	snap     atomic.Pointer[Snapshot] // never nil

	// mu serializes the writers (Profile, Analyze, Tick, PersistDataset)
	// and guards the streaming state: the collector that owns the
	// dataset's columnar buffers (retained so Tick can re-measure deltas
	// in place), the incremental analyzer, and the drift detector that
	// triggers its full rebuilds. The latter two are built lazily on the
	// first tick and discarded whenever Profile/Analyze resets the baseline.
	mu        sync.Mutex
	collector *profiler.Collector
	inc       *analyzer.Incremental
	det       *drift.Detector
}

// Snapshot is one published state of the pipeline, which readers load
// without locking. Nothing they touch is written again (for the working
// rows, see profiler.Dataset): each later Profile, Analyze or Tick
// publishes a new Snapshot under the next Epoch; New publishes epoch 0.
//
// A snapshot also carries its population's relaxed-state table, which
// its estimates fill as they replay (see perfscore.RelaxTable). A
// scenario's placements never change under its ID, so Analyze and Tick
// pass the table on to the snapshot they publish; Profile starts a new
// one, so an estimate still running on an older snapshot never reads
// another population's states. Beside it, the snapshot memoises its
// analysis' per-job strata (see replayer.JobStrata), built on each HP
// job's first per-job estimate; publishing builds nothing.
type Snapshot struct {
	Epoch    uint64
	Dataset  *profiler.Dataset  // nil before Profile
	Analysis *analyzer.Analysis // nil before Analyze
	p        *Pipeline          // configuration and inherent MIPS
	relaxed  *perfscore.RelaxTable
	jobs     replayer.JobStrata // of Analysis
}

// New validates the configuration and prepares the pipeline (including
// measuring every job's inherent MIPS on the baseline machine, the
// denominator of the performance metric).
func New(cfg Config) (*Pipeline, error) {
	if cfg.Jobs == nil || cfg.Jobs.Len() == 0 {
		return nil, errors.New("core: empty job catalog")
	}
	if cfg.Metrics == nil || cfg.Metrics.Len() == 0 {
		return nil, errors.New("core: empty metric catalog")
	}
	if err := cfg.Machine.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	inh, err := perfscore.NewInherent(cfg.Machine, cfg.Jobs)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p := &Pipeline{cfg: cfg, inherent: inh}
	p.snap.Store(&Snapshot{p: p})
	return p, nil
}

// Snapshot returns the current snapshot.
func (p *Pipeline) Snapshot() *Snapshot { return p.snap.Load() }

// publish makes ds and an the next snapshot, with relaxed as its
// relaxed-state table. Callers hold p.mu.
func (p *Pipeline) publish(ds *profiler.Dataset, an *analyzer.Analysis, relaxed *perfscore.RelaxTable) *Snapshot {
	s := &Snapshot{Epoch: p.snap.Load().Epoch + 1, Dataset: ds, Analysis: an, p: p, relaxed: relaxed}
	p.snap.Store(s)
	return s
}

// Profile runs FLARE step 1: measure every scenario in the population on
// the baseline machine and build the raw metric matrix.
func (p *Pipeline) Profile(set *scenario.Set) error {
	return p.ProfileContext(context.Background(), set)
}

// ProfileContext is Profile with span tracing: when ctx carries an
// obs.Tracer the stage records a "pipeline.profile" span (with profiler
// sub-spans) and its duration lands in the stage-timing histogram.
func (p *Pipeline) ProfileContext(ctx context.Context, set *scenario.Set) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return obs.InSpan(ctx, "pipeline.profile", func(ctx context.Context, span *obs.Span) error {
		if set != nil {
			span.SetAttr("scenarios", set.Len())
		}
		c, err := profiler.NewCollector(p.cfg.Machine, set, p.cfg.Jobs, p.cfg.Metrics, p.cfg.Profile)
		if err != nil {
			return fmt.Errorf("core: profiling: %w", err)
		}
		ds, err := c.Collect(ctx)
		if err != nil {
			return fmt.Errorf("core: profiling: %w", err)
		}
		p.collector = c
		p.inc, p.det = nil, nil
		p.publish(ds, nil, perfscore.NewRelaxTable()) // invalidate any previous analysis
		return nil
	})
}

// Analyze runs FLARE steps 2-3: metric refinement, PCA, clustering, and
// representative extraction. Profile must have been called.
func (p *Pipeline) Analyze() error {
	return p.AnalyzeContext(context.Background())
}

// AnalyzeContext is Analyze with span tracing ("pipeline.analyze" plus
// refine/PCA/cluster sub-spans).
func (p *Pipeline) AnalyzeContext(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	ds := p.snap.Load().Dataset
	if ds == nil {
		return errors.New("core: Analyze called before Profile")
	}
	return obs.InSpan(ctx, "pipeline.analyze", func(ctx context.Context, span *obs.Span) error {
		an, err := analyzer.AnalyzeContext(ctx, ds, p.cfg.Analyze)
		if err != nil {
			return fmt.Errorf("core: analysis: %w", err)
		}
		span.SetAttr("clusters", an.Clustering.K)
		span.SetAttr("principal_components", an.PCA.NumPC)
		p.inc, p.det = nil, nil // tick state re-derives lazily from the new baseline
		p.publish(ds, an, p.snap.Load().relaxed)
		return nil
	})
}

// Tick is TickContext with a background context and no incoming
// scenarios (scenarios the caller added to the profiled set are new).
func (p *Pipeline) Tick(changed []int) error {
	_, _, _, err := p.TickContext(context.Background(), nil, changed)
	return err
}

// TickContext incrementally refreshes the pipeline after the scenario
// population evolved: the incoming scenarios are added to a copy of the
// population, new scenarios (also any the caller appended to the profiled
// set) are measured for the first time, and the changed already-measured
// scenarios are re-measured. Where a full
// Profile+Analyze costs O(population), a tick costs O(delta): only the
// touched scenarios are evaluated, the PCA is re-fit from running
// moments, and the clustering is folded forward from the previous
// centroids (see analyzer.Incremental).
//
// When the touched scenarios drift away from the population the
// representatives were extracted from (internal/drift's novelty test
// against the frozen analysis) — or the incremental analyzer's own
// invariants break — the analysis falls back to a deterministic full
// rebuild, byte-identical to Analyze on the same data. Ticks before
// Analyze just extend the dataset; Profile must have been called. It
// returns the snapshot it published, how many incoming scenarios were
// new and how many distinct changed IDs were re-measured; a failed tick
// publishes nothing.
func (p *Pipeline) TickContext(ctx context.Context, incoming []scenario.Scenario, changed []int) (snap *Snapshot, added, remeasured int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.collector == nil {
		return nil, 0, 0, errors.New("core: Tick called before Profile")
	}
	err = obs.InSpan(ctx, "pipeline.tick", func(ctx context.Context, span *obs.Span) error {
		touched, n, m, err := p.collector.TickScenarios(ctx, incoming, changed)
		if err != nil {
			return fmt.Errorf("core: tick profiling: %w", err)
		}
		added, remeasured = n, m
		span.SetAttr("changed", remeasured)
		span.SetAttr("touched", len(touched))
		ds := p.collector.Dataset()
		an := p.snap.Load().Analysis
		if an != nil && len(touched) > 0 {
			if p.inc == nil {
				if p.inc, err = analyzer.NewIncremental(an, p.cfg.Analyze); err != nil {
					return fmt.Errorf("core: tick analysis: %w", err)
				}
			}
			if p.det == nil {
				if p.det, err = drift.NewDetector(an, drift.DefaultQuantile); err != nil {
					return fmt.Errorf("core: tick drift detector: %w", err)
				}
			}

			// Drift gate: score the touched rows against the frozen analysis. A
			// drifted delta invalidates the incremental approximation, so rebuild.
			delta := linalg.NewMatrix(len(touched), ds.Matrix.Cols())
			for i, id := range touched {
				copy(delta.RowView(i), ds.Matrix.RowView(id))
			}
			rep, err := p.det.Assess(delta)
			if err != nil {
				return fmt.Errorf("core: tick drift assessment: %w", err)
			}
			span.SetAttr("drifted", rep.Drifted)

			rebuilt := rep.Drifted
			if rebuilt {
				err = p.inc.RebuildContext(ctx)
			} else {
				rebuilt, err = p.inc.TickContext(ctx, touched)
			}
			if err != nil {
				return fmt.Errorf("core: tick: %w", err)
			}
			span.SetAttr("rebuilt", rebuilt)
			if rebuilt {
				p.det = nil // recalibrate the novelty threshold on the new baseline
			}
			an = p.inc.Analysis()
		}
		// The incremental analyzer reads only the rows and catalog, which all
		// of a collector's Datasets share; the published set must be the tick's.
		if an != nil && an.Dataset != ds {
			next := *an
			next.Dataset = ds
			an = &next
		}
		snap = p.publish(ds, an, p.snap.Load().relaxed)
		span.SetAttr("epoch", snap.Epoch)
		return nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return snap, added, remeasured, nil
}

// EvaluateFeature runs FLARE step 4 for one feature: replay the
// representatives under baseline and feature configurations and return
// the weighted impact estimate. Analyze must have been called.
func (p *Pipeline) EvaluateFeature(feat machine.Feature) (*replayer.Estimate, error) {
	return p.Snapshot().EvaluateFeature(context.Background(), feat)
}

// EvaluateFeature is Pipeline.EvaluateFeature on the snapshot's analysis,
// with a "pipeline.evaluate" span (plus replay sub-spans).
func (s *Snapshot) EvaluateFeature(ctx context.Context, feat machine.Feature) (*replayer.Estimate, error) {
	if s.Analysis == nil {
		return nil, errors.New("core: EvaluateFeature called before Analyze")
	}
	var est *replayer.Estimate
	err := obs.InSpan(ctx, "pipeline.evaluate", func(ctx context.Context, span *obs.Span) error {
		span.SetAttr("feature", feat.Name)
		span.SetAttr("epoch", s.Epoch)
		var err error
		est, err = replayer.EstimateAllJob(ctx, s.Analysis, s.p.cfg.Jobs, s.p.inherent, s.relaxed, s.p.cfg.Machine, feat, s.p.cfg.Replay)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		span.SetAttr("scenarios_replayed", est.ScenariosReplayed)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return est, nil
}

// EvaluateFeatureForJob estimates a feature's impact on one HP job,
// using the per-job fallback and instance weighting of Sec 5.3.
func (p *Pipeline) EvaluateFeatureForJob(feat machine.Feature, job string) (*replayer.JobEstimate, error) {
	return p.Snapshot().EvaluateFeatureForJob(context.Background(), feat, job)
}

// EvaluateFeatureForJob is Pipeline.EvaluateFeatureForJob on the
// snapshot's analysis, with a "pipeline.evaluate_job" span.
func (s *Snapshot) EvaluateFeatureForJob(ctx context.Context, feat machine.Feature, job string) (*replayer.JobEstimate, error) {
	if s.Analysis == nil {
		return nil, errors.New("core: EvaluateFeatureForJob called before Analyze")
	}
	var est *replayer.JobEstimate
	err := obs.InSpan(ctx, "pipeline.evaluate_job", func(ctx context.Context, span *obs.Span) error {
		span.SetAttr("feature", feat.Name)
		span.SetAttr("job", job)
		span.SetAttr("epoch", s.Epoch)
		var err error
		est, err = s.jobs.EstimatePerJob(ctx, s.Analysis, s.p.cfg.Jobs, s.p.inherent, s.relaxed, s.p.cfg.Machine, feat, job, s.p.cfg.Replay)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		span.SetAttr("scenarios_replayed", est.ScenariosReplayed)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return est, nil
}

// PersistDataset records the profiled dataset into db (the paper's
// relational recording of collected statistics). With a store-backed db
// (metricdb.OpenDB) the rows are journaled per scenario, as two fsynced
// WAL commits (its samples, then its job performance), and a crash keeps
// every committed batch. Profile must have been called.
func (p *Pipeline) PersistDataset(db *metricdb.DB) error {
	return p.PersistDatasetContext(context.Background(), db)
}

// PersistDatasetContext is PersistDataset with span tracing
// ("pipeline.persist" wrapping the profiler's store span).
func (p *Pipeline) PersistDatasetContext(ctx context.Context, db *metricdb.DB) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	ds := p.snap.Load().Dataset
	if ds == nil {
		return errors.New("core: PersistDataset called before Profile")
	}
	return obs.InSpan(ctx, "pipeline.persist", func(ctx context.Context, _ *obs.Span) error {
		if err := ds.Store(ctx, db); err != nil {
			return fmt.Errorf("core: persisting dataset: %w", err)
		}
		return nil
	})
}

// Dataset returns the current snapshot's dataset (nil before Profile).
func (p *Pipeline) Dataset() *profiler.Dataset { return p.Snapshot().Dataset }

// Analysis returns the current snapshot's analysis (nil before Analyze).
func (p *Pipeline) Analysis() *analyzer.Analysis { return p.Snapshot().Analysis }

// Inherent returns the inherent-MIPS table measured at construction.
func (p *Pipeline) Inherent() *perfscore.Inherent { return p.inherent }

// Machine returns the pipeline's baseline machine configuration.
func (p *Pipeline) Machine() machine.Config { return p.cfg.Machine }

// Jobs returns the pipeline's workload catalog.
func (p *Pipeline) Jobs() *workload.Catalog { return p.cfg.Jobs }

// Representatives returns the extracted representatives (nil before
// Analyze).
func (p *Pipeline) Representatives() []analyzer.Representative {
	if an := p.Analysis(); an != nil {
		return slices.Clone(an.Representatives)
	}
	return nil
}
