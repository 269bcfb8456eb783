package profiler

import (
	"context"
	"math"
	"testing"
	"time"

	"flare/internal/dcsim"
	"flare/internal/machine"
	"flare/internal/metricdb"
	"flare/internal/metrics"
	"flare/internal/scenario"
	"flare/internal/workload"
)

// testSet builds a small deterministic scenario population.
func testSet(t *testing.T) *scenario.Set {
	t.Helper()
	cfg := dcsim.DefaultConfig()
	cfg.Duration = 4 * 24 * time.Hour
	cfg.ResizesPerJobPerDay = 4
	trace, err := dcsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Scenarios
}

func collect(t *testing.T, set *scenario.Set, opts Options) *Dataset {
	t.Helper()
	ds, err := Collect(
		machine.BaselineConfig(machine.DefaultShape()),
		set,
		workload.DefaultCatalog(),
		metrics.DefaultCatalog(),
		opts,
	)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestCollectValidation(t *testing.T) {
	cfg := machine.BaselineConfig(machine.DefaultShape())
	jobs := workload.DefaultCatalog()
	cat := metrics.DefaultCatalog()
	set := scenario.NewSet()

	if _, err := Collect(cfg, set, jobs, cat, DefaultOptions()); err == nil {
		t.Error("empty set did not error")
	}
	sc, _ := scenario.New([]scenario.Placement{{Job: workload.DataCaching, Instances: 1}})
	set.Add(sc)
	if _, err := Collect(cfg, set, nil, cat, DefaultOptions()); err == nil {
		t.Error("nil job catalog did not error")
	}
	bad := DefaultOptions()
	bad.SamplesPerScenario = 0
	if _, err := Collect(cfg, set, jobs, cat, bad); err == nil {
		t.Error("zero samples did not error")
	}
	badCfg := cfg
	badCfg.LLCMB = -1
	if _, err := Collect(badCfg, set, jobs, cat, DefaultOptions()); err == nil {
		t.Error("invalid config did not error")
	}
}

func TestCollectUnknownJobErrors(t *testing.T) {
	set := scenario.NewSet()
	sc, _ := scenario.New([]scenario.Placement{{Job: "mystery", Instances: 1}})
	set.Add(sc)
	_, err := Collect(machine.BaselineConfig(machine.DefaultShape()), set,
		workload.DefaultCatalog(), metrics.DefaultCatalog(), DefaultOptions())
	if err == nil {
		t.Error("unknown job in scenario did not error")
	}
}

func TestCollectFillsMatrix(t *testing.T) {
	set := testSet(t)
	ds := collect(t, set, DefaultOptions())

	if ds.Matrix.Rows() != set.Len() {
		t.Fatalf("matrix rows = %d, want %d", ds.Matrix.Rows(), set.Len())
	}
	if ds.Matrix.Cols() != ds.Catalog.Len() {
		t.Fatalf("matrix cols = %d, want %d", ds.Matrix.Cols(), ds.Catalog.Len())
	}
	// Every scenario must have positive machine MIPS.
	col, err := ds.MetricColumn("MIPS-Machine")
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range col {
		if v <= 0 {
			t.Errorf("scenario %d has MIPS-Machine = %v", id, v)
		}
	}
}

func TestCollectJobMIPSMatchesPlacements(t *testing.T) {
	set := testSet(t)
	ds := collect(t, set, DefaultOptions())
	for id := 0; id < set.Len(); id++ {
		sc, _ := set.Get(id)
		jm := ds.JobMIPS[id]
		if len(jm) != len(sc.Placements) {
			t.Fatalf("scenario %d has %d job MIPS entries, want %d", id, len(jm), len(sc.Placements))
		}
		for _, p := range sc.Placements {
			if jm[p.Job] <= 0 {
				t.Errorf("scenario %d job %s MIPS = %v", id, p.Job, jm[p.Job])
			}
		}
	}
}

func TestCollectDeterministicAcrossWorkerCounts(t *testing.T) {
	set := testSet(t)
	opts := DefaultOptions()
	opts.Workers = 1
	a := collect(t, set, opts)
	opts.Workers = 8
	b := collect(t, set, opts)

	for i := 0; i < a.Matrix.Rows(); i++ {
		for j := 0; j < a.Matrix.Cols(); j++ {
			if a.Matrix.At(i, j) != b.Matrix.At(i, j) {
				t.Fatalf("cell (%d,%d) differs across worker counts: %v vs %v",
					i, j, a.Matrix.At(i, j), b.Matrix.At(i, j))
			}
		}
	}
}

func TestCollectAveragingReducesNoise(t *testing.T) {
	set := scenario.NewSet()
	sc, _ := scenario.New([]scenario.Placement{{Job: workload.WebSearch, Instances: 2}})
	set.Add(sc)

	// Deterministic reference.
	det := collect(t, set, Options{SamplesPerScenario: 1, NoiseStd: 0, Seed: 1})
	ref, _ := det.MetricColumn("MIPS-Machine")

	spread := func(samples int) float64 {
		var worst float64
		for seed := int64(0); seed < 20; seed++ {
			ds := collect(t, set, Options{SamplesPerScenario: samples, NoiseStd: 0.05, Seed: seed})
			col, _ := ds.MetricColumn("MIPS-Machine")
			dev := math.Abs(col[0]-ref[0]) / ref[0]
			if dev > worst {
				worst = dev
			}
		}
		return worst
	}
	if s1, s16 := spread(1), spread(16); s16 >= s1 {
		t.Errorf("averaging 16 samples did not reduce worst-case deviation: 1 sample %v, 16 samples %v", s1, s16)
	}
}

func TestStoreAndLoadMatrix(t *testing.T) {
	set := scenario.NewSet()
	a, _ := scenario.New([]scenario.Placement{{Job: workload.DataCaching, Instances: 2}})
	b, _ := scenario.New([]scenario.Placement{{Job: workload.Mcf, Instances: 1}})
	set.Add(a)
	set.Add(b)
	ds := collect(t, set, DefaultOptions())

	db := metricdb.NewDB()
	if err := ds.Store(context.Background(), db); err != nil {
		t.Fatal(err)
	}

	samples, err := db.Table("samples")
	if err != nil {
		t.Fatal(err)
	}
	if samples.Len() != set.Len()*ds.Catalog.Len() {
		t.Errorf("samples table has %d rows, want %d", samples.Len(), set.Len()*ds.Catalog.Len())
	}

	// Round trip into a fresh dataset shell.
	shell := &Dataset{
		Scenarios: set,
		Catalog:   ds.Catalog,
		Config:    ds.Config,
		Matrix:    ds.Matrix.Clone(),
	}
	for i := 0; i < shell.Matrix.Rows(); i++ {
		for j := 0; j < shell.Matrix.Cols(); j++ {
			shell.Matrix.Set(i, j, 0)
		}
	}
	if err := shell.LoadMatrix(db); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Matrix.Rows(); i++ {
		for j := 0; j < ds.Matrix.Cols(); j++ {
			if shell.Matrix.At(i, j) != ds.Matrix.At(i, j) {
				t.Fatalf("cell (%d,%d) lost in store/load round trip", i, j)
			}
		}
	}
}

func TestStoreTwiceFails(t *testing.T) {
	set := scenario.NewSet()
	sc, _ := scenario.New([]scenario.Placement{{Job: workload.DataCaching, Instances: 1}})
	set.Add(sc)
	ds := collect(t, set, DefaultOptions())
	db := metricdb.NewDB()
	if err := ds.Store(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	if err := ds.Store(context.Background(), db); err == nil {
		t.Error("second Store into same DB did not error")
	}
}

func TestMetricColumnUnknown(t *testing.T) {
	set := testSet(t)
	ds := collect(t, set, DefaultOptions())
	if _, err := ds.MetricColumn("nope"); err == nil {
		t.Error("unknown metric did not error")
	}
}

func TestPhaseStdFillsVariabilityMetrics(t *testing.T) {
	cat, err := metrics.WithVariability(metrics.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	set := scenario.NewSet()
	// MS has high PhaseVariability (0.70), sjeng very low (0.05).
	ms, _ := scenario.New([]scenario.Placement{{Job: workload.MediaStreaming, Instances: 2}})
	sj, _ := scenario.New([]scenario.Placement{{Job: workload.Sjeng, Instances: 2}})
	set.Add(ms)
	set.Add(sj)

	opts := Options{SamplesPerScenario: 24, NoiseStd: 0, Seed: 3, PhaseStd: 0.5}
	ds, err := Collect(machine.BaselineConfig(machine.DefaultShape()), set,
		workload.DefaultCatalog(), cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	col, err := ds.MetricColumn("MIPS-Machine-Std")
	if err != nil {
		t.Fatal(err)
	}
	if col[0] <= 0 {
		t.Fatalf("MS scenario MIPS stddev = %v, want > 0 with phases enabled", col[0])
	}
	// Relative variability of the diurnal job dwarfs the steady batch job.
	mipsCol, err := ds.MetricColumn("MIPS-Machine")
	if err != nil {
		t.Fatal(err)
	}
	relMS := col[0] / mipsCol[0]
	relSJ := col[1] / mipsCol[1]
	if relMS <= relSJ {
		t.Errorf("MS relative MIPS variability %v not above sjeng's %v", relMS, relSJ)
	}
}

func TestPhaseStdZeroLeavesStdNearZero(t *testing.T) {
	cat, err := metrics.WithVariability(metrics.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	set := scenario.NewSet()
	sc, _ := scenario.New([]scenario.Placement{{Job: workload.MediaStreaming, Instances: 2}})
	set.Add(sc)
	ds, err := Collect(machine.BaselineConfig(machine.DefaultShape()), set,
		workload.DefaultCatalog(), cat, Options{SamplesPerScenario: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	col, err := ds.MetricColumn("MIPS-Machine-Std")
	if err != nil {
		t.Fatal(err)
	}
	if col[0] != 0 {
		t.Errorf("deterministic samples gave MIPS stddev %v, want 0", col[0])
	}
}

func TestCollectManyBadScenariosNoDeadlock(t *testing.T) {
	// Regression: when every worker hits an error, the producer must not
	// block feeding the remaining scenario IDs (deadlock).
	set := scenario.NewSet()
	for i := 0; i < 64; i++ {
		sc, _ := scenario.New([]scenario.Placement{{Job: "mystery", Instances: i + 1}})
		set.Add(sc)
	}
	done := make(chan error, 1)
	go func() {
		_, err := Collect(machine.BaselineConfig(machine.DefaultShape()), set,
			workload.DefaultCatalog(), metrics.DefaultCatalog(),
			Options{SamplesPerScenario: 1, Workers: 2})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("all-bad population did not error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Collect deadlocked on an all-bad population")
	}
}

func TestProfileOneSteadyStateAllocs(t *testing.T) {
	// The per-sample loop must stay allocation-free in steady state: the
	// model evaluator, RNG, row buffer, assignment list, and the
	// per-scenario JobMIPS map all live in reusable collector/scratch
	// state, and re-measuring an already-measured scenario (the tick
	// path's hot case) clears and refills rather than reallocating.
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	set := testSet(t)
	opts := DefaultOptions()
	opts.PhaseStd = 0.3 // exercise the phase-factor buffer too

	c, err := NewCollector(machine.BaselineConfig(machine.DefaultShape()), set,
		workload.DefaultCatalog(), metrics.DefaultCatalog(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Collect(t.Context()); err != nil {
		t.Fatal(err)
	}
	scr, err := c.newScratch()
	if err != nil {
		t.Fatal(err)
	}
	id := set.Len() / 2
	if err := c.profileOne(id, scr); err != nil {
		t.Fatal(err) // warm the scratch before counting
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := c.profileOne(id, scr); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 0 on go1.24; the bound leaves a sliver of slack for
	// toolchain drift while still catching any reintroduced per-sample
	// or per-scenario buffer.
	const maxAllocs = 2
	if allocs > maxAllocs {
		t.Errorf("profileOne allocates %.0f objects per scenario, want <= %d", allocs, maxAllocs)
	}
}
