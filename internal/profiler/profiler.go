// Package profiler implements FLARE's Profiler: the daemon that measures
// every job-colocation scenario of the datacenter and records averaged
// performance/resource metrics into the metric database (paper Sec 4.2).
//
// On the real system the Profiler runs on every server, periodically
// sampling perf counters, topdown, and /proc. Here each scenario is
// "measured" by evaluating the contention model several times with
// measurement noise and averaging — the same pipeline shape (noisy
// periodic samples -> per-scenario mean) with the testbed replaced by the
// model.
//
// Collection is streaming and columnar: a Collector owns struct-of-arrays
// sample buffers (one contiguous column per metric) that are reused
// across ticks. Measurement runs in two phases under the collect span —
// "profiler.evaluate" fans scenarios out over a bounded worker pool and
// writes samples straight into the columns, and "profiler.reduce" folds
// the columns into per-scenario means and stddevs. After the initial
// Collect, Tick re-measures only the delta (new scenarios plus explicitly
// changed ones), so steady-state re-profiling is O(delta), not
// O(history): per-scenario RNG substreams make the tick sequence
// byte-identical to a from-scratch Collect.
package profiler

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"flare/internal/linalg"
	"flare/internal/machine"
	"flare/internal/mathx"
	"flare/internal/metrics"
	"flare/internal/obs"
	"flare/internal/perfmodel"
	"flare/internal/scenario"
	"flare/internal/stats"
	"flare/internal/workload"
)

// scenarioPrime derives each scenario's deterministic RNG substream from
// the collection seed, so results are independent of worker interleaving
// and a re-measured scenario reproduces its bytes exactly.
const scenarioPrime = 7919

// Options controls a collection run.
type Options struct {
	// SamplesPerScenario is how many noisy measurements are averaged per
	// scenario (the daemon's periodic samples over the job's >= 30 min
	// lifetime).
	SamplesPerScenario int
	// NoiseStd is the per-sample measurement noise.
	NoiseStd float64
	// Seed makes collection reproducible; each scenario derives its own
	// substream so results do not depend on worker interleaving.
	Seed int64
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// PhaseStd enables temporal/phase modelling (paper Sec 4.1): each
	// sample modulates every job's load by a log-normal factor with
	// deviation PhaseStd * job.PhaseVariability. Zero disables phases.
	// Combine with a metrics.WithVariability catalog so the resulting
	// "-Std" metrics capture the swings.
	PhaseStd float64
}

// DefaultOptions returns sensible collection settings.
func DefaultOptions() Options {
	return Options{
		SamplesPerScenario: 5,
		NoiseStd:           0.02,
		Seed:               1,
	}
}

// Dataset is the Profiler's output: one averaged metric vector per
// scenario, plus per-job throughput observations for the performance
// ground truth. Scenarios, Catalog and Config are never written once
// handed out (a tick that adds scenarios copies the set); Matrix and
// JobMIPS are the collector's working state, updated in place by every
// tick, so read them only where ticks are serialized.
type Dataset struct {
	Scenarios *scenario.Set
	Catalog   *metrics.Catalog
	Config    machine.Config

	// Matrix holds scenarios in rows (by scenario ID) and metrics in
	// columns (catalog order).
	Matrix *linalg.Matrix

	// JobMIPS[scenarioID][job] is the measured per-instance MIPS of each
	// job in each scenario.
	JobMIPS []map[string]float64
}

// Collect profiles every scenario in the set on the given machine
// configuration, untraced (Collector.Collect takes a context).
func Collect(cfg machine.Config, set *scenario.Set, jobs *workload.Catalog,
	cat *metrics.Catalog, opts Options) (*Dataset, error) {
	c, err := NewCollector(cfg, set, jobs, cat, opts)
	if err != nil {
		return nil, err
	}
	return c.Collect(context.Background())
}

// Collector owns the reusable state of a streaming profiling run: the
// dataset being grown and the columnar sample buffers shared across
// ticks. Methods are not safe for concurrent use; the internal worker
// pool provides the parallelism.
type Collector struct {
	cfg  machine.Config
	jobs *workload.Catalog
	opts Options

	ds *Dataset

	// cols is the struct-of-arrays sample buffer: cols[j] holds metric
	// j's samples for every scenario, scenario id's samples contiguous at
	// [id*S, (id+1)*S). Columns are reused (and grown) across ticks.
	cols [][]float64

	// stdBase[j] is the base column a "-Std" variability column reduces
	// from, or -1 for plain mean columns (resolved once from the catalog).
	stdBase []int

	// measured is how many scenario IDs have been profiled; IDs >=
	// measured are new since the last Collect/Tick.
	measured int
}

// NewCollector validates the inputs and prepares an empty collector bound
// to the scenario set. The set may keep growing afterwards: Collect
// profiles everything currently in it, Tick profiles the delta.
func NewCollector(cfg machine.Config, set *scenario.Set, jobs *workload.Catalog,
	cat *metrics.Catalog, opts Options) (*Collector, error) {
	if set == nil {
		return nil, errors.New("profiler: nil scenario set")
	}
	if jobs == nil || cat == nil {
		return nil, errors.New("profiler: nil catalog")
	}
	if opts.SamplesPerScenario <= 0 {
		return nil, errors.New("profiler: SamplesPerScenario must be positive")
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("profiler: %w", err)
	}
	c := &Collector{
		cfg:     cfg,
		jobs:    jobs,
		opts:    opts,
		cols:    make([][]float64, cat.Len()),
		stdBase: make([]int, cat.Len()),
	}
	names := cat.Names()
	for j := 0; j < cat.Len(); j++ {
		c.stdBase[j] = cat.StdBase(j)
		if _, isStd := metrics.StdOf(names[j]); isStd && c.stdBase[j] < 0 {
			return nil, fmt.Errorf("profiler: variability metric %s has no base column", names[j])
		}
	}
	c.ds = &Dataset{
		Scenarios: set,
		Catalog:   cat,
		Config:    cfg,
	}
	return c, nil
}

// Dataset returns the dataset of the last successful Collect or Tick.
func (c *Collector) Dataset() *Dataset { return c.ds }

// Collect profiles every scenario currently in the set — the full batch
// build, and the golden reference the tick path is tested against.
func (c *Collector) Collect(ctx context.Context) (*Dataset, error) {
	set := c.ds.Scenarios
	if set.Len() == 0 {
		return nil, errors.New("profiler: empty scenario set")
	}
	ctx, span := obs.StartSpan(ctx, "profiler.collect")
	defer span.End()
	span.SetAttr("scenarios", set.Len())
	span.SetAttr("workers", c.workers())
	span.SetAttr("samples_per_scenario", c.opts.SamplesPerScenario)

	ids := make([]int, set.Len())
	for i := range ids {
		ids[i] = i
	}
	if err := c.measure(ctx, ids); err != nil {
		return nil, err
	}
	return c.ds, nil
}

// Tick profiles the delta after a datacenter tick: every scenario added
// to the set since the last Collect/Tick, plus the explicitly listed
// already-measured IDs (re-measured byte-identically from their own RNG
// substreams). It returns the sorted IDs that were (re)profiled. Cost is
// O(len(touched)), not O(set.Len()).
func (c *Collector) Tick(ctx context.Context, changed []int) (touched []int, err error) {
	touched, _, err = c.TickScenarios(ctx, nil, changed)
	return touched, err
}

// TickScenarios is Tick that first adds the incoming scenarios (deduped
// by scenario.Set.Add) to a copy of the set held by a new Dataset, and
// also reports how many were new. A failed tick changes neither the
// collector's dataset nor its matrix.
func (c *Collector) TickScenarios(ctx context.Context, incoming []scenario.Scenario, changed []int) (touched []int, added int, err error) {
	ctx, span := obs.StartSpan(ctx, "profiler.tick")
	defer span.End()

	seen := make(map[int]bool, len(changed))
	for _, id := range changed {
		if id < 0 || id >= c.measured {
			return nil, 0, fmt.Errorf("profiler: changed scenario %d out of measured range [0,%d)", id, c.measured)
		}
		if !seen[id] {
			seen[id] = true
			touched = append(touched, id)
		}
	}
	prev := c.ds
	if len(incoming) > 0 {
		next := *prev
		next.Scenarios = prev.Scenarios.Clone()
		for _, sc := range incoming {
			next.Scenarios.Add(sc)
		}
		added = next.Scenarios.Len() - prev.Scenarios.Len()
		c.ds = &next
	}
	set := c.ds.Scenarios
	for id := c.measured; id < set.Len(); id++ {
		touched = append(touched, id)
	}
	sort.Ints(touched)
	span.SetAttr("new", set.Len()-c.measured)
	span.SetAttr("changed", len(seen))
	span.SetAttr("touched", len(touched))
	if len(touched) == 0 {
		return nil, added, nil
	}
	if err := c.measure(ctx, touched); err != nil {
		c.ds = prev
		return nil, 0, err
	}
	return touched, added, nil
}

// workers resolves the effective worker-pool size.
func (c *Collector) workers() int {
	if c.opts.Workers > 0 {
		return c.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// measure runs the two-phase collection for the given scenario IDs:
// evaluate (model + extract into the sample columns, worker pool) then
// reduce (columns -> matrix rows, sequential and deterministic). The
// matrix grows only after evaluation succeeded.
func (c *Collector) measure(ctx context.Context, ids []int) error {
	c.grow()
	if err := c.evaluatePhase(ctx, ids); err != nil {
		return err
	}
	n := c.ds.Scenarios.Len()
	if c.ds.Matrix == nil {
		c.ds.Matrix = linalg.NewMatrix(n, c.ds.Catalog.Len())
	} else if add := n - c.ds.Matrix.Rows(); add > 0 {
		c.ds.Matrix.GrowRows(add)
	}
	c.reducePhase(ctx, ids)
	c.measured = n
	if t := obs.TracerFrom(ctx); t != nil && t.Registry() != nil {
		t.Registry().Counter("flare_profiler_scenarios_total",
			"scenarios measured by the profiler").Add(uint64(len(ids)))
		t.Registry().Counter("flare_profiler_samples_total",
			"noisy per-scenario measurements taken by the profiler").
			Add(uint64(len(ids)) * uint64(c.opts.SamplesPerScenario))
	}
	return nil
}

// grow extends the JobMIPS ledger and the sample columns to cover every
// scenario currently in the set.
func (c *Collector) grow() {
	n := c.ds.Scenarios.Len()
	for len(c.ds.JobMIPS) < n {
		c.ds.JobMIPS = append(c.ds.JobMIPS, nil)
	}
	rows := n * c.opts.SamplesPerScenario
	for j := range c.cols {
		if cap(c.cols[j]) < rows {
			grown := make([]float64, rows)
			copy(grown, c.cols[j])
			c.cols[j] = grown
		} else {
			c.cols[j] = c.cols[j][:rows]
		}
	}
}

// evaluatePhase fans the scenario IDs out over the worker pool; each
// worker evaluates the contention model and writes samples directly into
// the columnar buffers.
func (c *Collector) evaluatePhase(ctx context.Context, ids []int) error {
	_, span := obs.StartSpan(ctx, "profiler.evaluate")
	defer span.End()
	span.SetAttr("scenarios", len(ids))

	workers := c.workers()
	// Workers never stop consuming, even after a failure — otherwise the
	// unbuffered feed below would block the producer once every worker
	// had exited on error. The first error wins; later work is skipped.
	var (
		feed     = make(chan int)
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		failed   atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker scratch: the model evaluator, RNG, and row
			// buffer are reused across every scenario this worker
			// profiles, so the steady-state loop is allocation-free.
			scr, err := c.newScratch()
			if err != nil {
				errOnce.Do(func() {
					firstErr = err
					failed.Store(true)
				})
			}
			for id := range feed {
				if failed.Load() {
					continue // drain without working
				}
				if err := c.profileOne(id, scr); err != nil {
					errOnce.Do(func() {
						firstErr = err
						failed.Store(true)
					})
				}
			}
		}()
	}
	for _, id := range ids {
		feed <- id
	}
	close(feed)
	wg.Wait()
	return firstErr
}

// reducePhase folds each touched scenario's sample columns into its
// matrix row: means for plain metrics, cross-sample stddevs for the
// variability twins. Sequential, so reduction order never depends on the
// worker count.
func (c *Collector) reducePhase(ctx context.Context, ids []int) {
	_, span := obs.StartSpan(ctx, "profiler.reduce")
	defer span.End()
	span.SetAttr("scenarios", len(ids))

	s := c.opts.SamplesPerScenario
	n := float64(s)
	for _, id := range ids {
		base := id * s
		row := c.ds.Matrix.RowView(id)
		for j := range c.cols {
			if b := c.stdBase[j]; b >= 0 {
				row[j] = stats.StdDev(c.cols[b][base : base+s])
				continue
			}
			var sum float64
			for _, x := range c.cols[j][base : base+s] {
				sum += x
			}
			row[j] = sum / n
		}
	}
}

// scratch holds one worker's reusable profiling state.
type scratch struct {
	ev      *perfmodel.Evaluator
	src     *splitMix
	rng     *rand.Rand
	row     []float64 // one extracted sample, scattered into the columns
	factors []float64
	assign  []perfmodel.Assignment
	res     perfmodel.Result
}

func (c *Collector) newScratch() (*scratch, error) {
	ev, err := perfmodel.NewEvaluator(c.cfg)
	if err != nil {
		return nil, fmt.Errorf("profiler: %w", err)
	}
	src := &splitMix{}
	return &scratch{
		ev:  ev,
		src: src,
		rng: rand.New(src),
		row: make([]float64, c.ds.Catalog.Len()),
	}, nil
}

// profileOne measures one scenario: SamplesPerScenario noisy evaluations
// written into the sample columns, plus the per-job MIPS ledger. The
// deterministic relaxation runs once when phases are disabled (every
// sample would converge to the same state); only the noisy result
// materialisation repeats. With phases enabled each sample re-relaxes
// under its drawn activity factors, preserving the RNG draw order.
func (c *Collector) profileOne(id int, scr *scratch) error {
	sc, err := c.ds.Scenarios.Get(id)
	if err != nil {
		return err
	}
	scr.assign, err = assignmentsInto(scr.assign[:0], sc, c.jobs)
	if err != nil {
		return err
	}

	// Per-scenario deterministic substream: results are independent of
	// scheduling order across workers, and a re-measured scenario
	// reproduces its bytes exactly.
	scr.src.seed(c.opts.Seed + int64(id)*scenarioPrime)

	if err := scr.ev.Begin(scr.assign); err != nil {
		return fmt.Errorf("profiler: scenario %d: %w", id, err)
	}
	jm := c.ds.JobMIPS[id]
	if jm == nil {
		jm = make(map[string]float64, len(scr.assign))
		c.ds.JobMIPS[id] = jm
	} else {
		clear(jm)
	}

	s := c.opts.SamplesPerScenario
	base := id * s
	relaxed := false
	for i := 0; i < s; i++ {
		factors := phaseFactorsInto(&scr.factors, scr.assign, c.opts.PhaseStd, scr.rng)
		if factors != nil || !relaxed {
			if err := scr.ev.Relax(factors); err != nil {
				return fmt.Errorf("profiler: scenario %d: %w", id, err)
			}
			relaxed = true
		}
		if err := scr.ev.ResultInto(&scr.res, perfmodel.Options{
			NoiseStd: c.opts.NoiseStd,
			Rand:     scr.rng,
		}); err != nil {
			return fmt.Errorf("profiler: scenario %d: %w", id, err)
		}
		metrics.ExtractInto(scr.row, c.ds.Catalog, c.ds.Config, scr.res)
		for j, x := range scr.row {
			c.cols[j][base+i] = x
		}
		for k := range scr.res.Jobs {
			jp := &scr.res.Jobs[k]
			jm[jp.Job] += jp.MIPS
		}
	}
	n := float64(s)
	for job := range jm {
		jm[job] /= n
	}
	return nil
}

// phaseFactorsInto draws one temporal load multiplier per job for a
// sample window, scaled by each job's catalog PhaseVariability, growing
// the caller's reusable buffer as needed. Returns nil when phases are
// disabled.
func phaseFactorsInto(buf *[]float64, assignments []perfmodel.Assignment, phaseStd float64, rng *rand.Rand) []float64 {
	if phaseStd <= 0 {
		return nil
	}
	if cap(*buf) < len(assignments) {
		*buf = make([]float64, len(assignments))
	}
	out := (*buf)[:len(assignments)]
	for i, a := range assignments {
		f := math.Exp(rng.NormFloat64() * phaseStd * a.Profile.PhaseVariability)
		out[i] = mathx.Clamp(f, 0.5, 1.5)
	}
	return out
}

// Assignments resolves a scenario's placements against the job catalog.
func Assignments(sc scenario.Scenario, jobs *workload.Catalog) ([]perfmodel.Assignment, error) {
	return assignmentsInto(make([]perfmodel.Assignment, 0, len(sc.Placements)), sc, jobs)
}

// assignmentsInto is Assignments appending into a reusable buffer.
func assignmentsInto(buf []perfmodel.Assignment, sc scenario.Scenario, jobs *workload.Catalog) ([]perfmodel.Assignment, error) {
	for _, p := range sc.Placements {
		prof, err := jobs.Lookup(p.Job)
		if err != nil {
			return nil, fmt.Errorf("profiler: scenario %d: %w", sc.ID, err)
		}
		buf = append(buf, perfmodel.Assignment{Profile: prof, Instances: p.Instances})
	}
	return buf, nil
}

// MetricColumn returns the dataset column for the named metric.
func (ds *Dataset) MetricColumn(name string) ([]float64, error) {
	idx := ds.Catalog.Index(name)
	if idx < 0 {
		return nil, fmt.Errorf("profiler: unknown metric %q", name)
	}
	return ds.Matrix.Col(idx), nil
}
