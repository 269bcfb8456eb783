package analyzer

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"flare/internal/dcsim"
	"flare/internal/machine"
	"flare/internal/metrics"
	"flare/internal/obs"
	"flare/internal/pca"
	"flare/internal/profiler"
	"flare/internal/scenario"
	"flare/internal/workload"
)

// servedClusters is the representative count flarebench serves its
// 28-day population with.
const servedClusters = 18

// traceCache memoises dcsim traces by length: generating one is the
// fixtures' shared expensive step.
var traceCache sync.Map // days -> []scenario.Scenario

// traceScenarios returns the scenarios of the default dcsim trace (seed 1)
// over the given number of days.
func traceScenarios(tb testing.TB, days int) []scenario.Scenario {
	tb.Helper()
	if v, ok := traceCache.Load(days); ok {
		return v.([]scenario.Scenario)
	}
	cfg := dcsim.DefaultConfig()
	cfg.Duration = time.Duration(days) * 24 * time.Hour
	trace, err := dcsim.Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	all := trace.Scenarios.All()
	traceCache.Store(days, all)
	return all
}

// streamFixture is a profiled prefix of a trace with an incremental
// analyzer over it; rest holds the scenarios ticks may append.
type streamFixture struct {
	collector *profiler.Collector
	set       *scenario.Set
	rest      []scenario.Scenario
	inc       *Incremental
}

// newStreamFixture profiles all but the last hold scenarios of the
// days-long trace and analyses them with flarebench's settings (default
// seeds, servedClusters representatives).
func newStreamFixture(tb testing.TB, days, hold int) *streamFixture {
	tb.Helper()
	all := traceScenarios(tb, days)
	if hold >= len(all)-2 {
		tb.Fatalf("trace has %d scenarios, cannot hold back %d", len(all), hold)
	}
	set := scenario.NewSet()
	for _, sc := range all[:len(all)-hold] {
		set.Add(sc)
	}
	c, err := profiler.NewCollector(machine.BaselineConfig(machine.DefaultShape()), set,
		workload.DefaultCatalog(), metrics.DefaultCatalog(), profiler.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	ds, err := c.Collect(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Clusters = servedClusters
	an, err := AnalyzeContext(context.Background(), ds, opts)
	if err != nil {
		tb.Fatal(err)
	}
	inc, err := NewIncremental(an, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return &streamFixture{collector: c, set: set, rest: all[len(all)-hold:], inc: inc}
}

// remeasureIDs draws 1-3 distinct sorted scenario IDs below population,
// the shape of a flarebench tick-mix tick.
func remeasureIDs(rng *rand.Rand, population int) []int {
	n := 1 + rng.Intn(3)
	seen := make(map[int]bool, n)
	var ids []int
	for len(ids) < n {
		if id := rng.Intn(population); !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// shortened returns ticks, or a tenth of it under -short or -race.
func shortened(ticks int) int {
	if testing.Short() || raceEnabled {
		return ticks / 10
	}
	return ticks
}

// coldTick ticks inc with its eigensolve started from the identity: the
// current model's components are hidden behind a copy, so FitFromMoments
// gets no usable start basis and takes the cold path.
func coldTick(t *testing.T, inc *Incremental, touched []int) {
	t.Helper()
	an := *inc.an
	model := *an.PCA
	model.Components = nil
	an.PCA = &model
	inc.an = &an
	if _, err := inc.TickContext(t.Context(), touched); err != nil {
		t.Fatal(err)
	}
}

func cloneComponents(c [][]float64) [][]float64 {
	out := make([][]float64, len(c))
	for k, v := range c {
		out[k] = append([]float64(nil), v...)
	}
	return out
}

// orthonormalityError returns max |V V^T - I| over the component rows.
func orthonormalityError(c [][]float64) float64 {
	var worst float64
	for a := range c {
		for b := a; b < len(c); b++ {
			var dot float64
			for i, x := range c[a] {
				dot += x * c[b][i]
			}
			if a == b {
				dot--
			}
			worst = math.Max(worst, math.Abs(dot))
		}
	}
	return worst
}

// TestWarmTickMatchesColdOnRemeasureTicks replays flarebench's tick-mix
// shape over its 28-day population: every tick re-measures 1-3 scenarios,
// once through the warm-started incremental analyzer and once through a
// cold-started reference. Representatives, labels and the component count
// must agree exactly, and a tick must never write into the published
// previous analysis.
func TestWarmTickMatchesColdOnRemeasureTicks(t *testing.T) {
	fx := newStreamFixture(t, 28, 0)
	warm := fx.inc
	cold, err := NewIncremental(warm.an, warm.opts)
	if err != nil {
		t.Fatal(err)
	}
	ticks := shortened(400) // tick-mix sends 20 ticks/s for 20 s
	rng := rand.New(rand.NewSource(1))
	population := fx.set.Len()
	var warmSweeps, coldSweeps int
	for i := 0; i < ticks; i++ {
		touched, err := fx.collector.Tick(t.Context(), remeasureIDs(rng, population))
		if err != nil {
			t.Fatal(err)
		}
		prev := warm.Analysis()
		prevComponents := cloneComponents(prev.PCA.Components)
		if _, err := warm.TickContext(t.Context(), touched); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(prev.PCA.Components, prevComponents) {
			t.Fatalf("tick %d wrote into the previous analysis' components", i)
		}
		coldTick(t, cold, touched)

		w, c := warm.Analysis(), cold.Analysis()
		warmSweeps += w.PCA.Sweeps
		coldSweeps += c.PCA.Sweeps
		if w.PCA.NumPC != c.PCA.NumPC {
			t.Fatalf("tick %d: NumPC %d warm vs %d cold", i, w.PCA.NumPC, c.PCA.NumPC)
		}
		if !reflect.DeepEqual(w.Clustering.Labels, c.Clustering.Labels) {
			t.Fatalf("tick %d: cluster labels differ from the cold reference", i)
		}
		if !reflect.DeepEqual(w.Representatives, c.Representatives) {
			t.Fatalf("tick %d: representatives differ from the cold reference", i)
		}
	}
	if warm.Rebuilds() != 0 {
		t.Errorf("re-measure ticks forced %d rebuilds", warm.Rebuilds())
	}
	if warmSweeps*4 > coldSweeps {
		t.Errorf("warm ticks ran %d Jacobi sweeps, cold %d: the warm start is not saving work", warmSweeps, coldSweeps)
	}
}

// TestWarmTicksStayOrthonormalAndMatchBatch runs 2,000 ticks that mix
// appended scenarios with re-measures. After every tick the warm-started
// basis must stay orthonormal and leave the previous analysis untouched,
// and at checkpoints its explained variance and components must agree
// with a batch FitWorkers over the same frozen-refinement rows, within
// the tolerance that pins FitFromMoments against FitWorkers.
func TestWarmTicksStayOrthonormalAndMatchBatch(t *testing.T) {
	const appendEvery = 10
	ticks := shortened(2000)
	checkEvery := ticks / 8
	fx := newStreamFixture(t, 10, ticks/appendEvery)
	inc := fx.inc
	rng := rand.New(rand.NewSource(7))
	var warmSweeps int
	for i := 1; i <= ticks; i++ {
		var changed []int
		if i%appendEvery == 0 {
			fx.set.Add(fx.rest[0])
			fx.rest = fx.rest[1:]
		} else {
			changed = remeasureIDs(rng, fx.collector.Dataset().Matrix.Rows())
		}
		touched, err := fx.collector.Tick(t.Context(), changed)
		if err != nil {
			t.Fatal(err)
		}
		prev := inc.Analysis()
		prevComponents := cloneComponents(prev.PCA.Components)
		rebuilt, err := inc.TickContext(t.Context(), touched)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(prev.PCA.Components, prevComponents) {
			t.Fatalf("tick %d wrote into the previous analysis' components", i)
		}
		cur := inc.Analysis().PCA
		if !rebuilt {
			warmSweeps += cur.Sweeps
		}
		if e := orthonormalityError(cur.Components); e > 1e-12 {
			t.Fatalf("tick %d: |V V^T - I| = %g", i, e)
		}
		if i%checkEvery != 0 {
			continue
		}
		refined, err := inc.an.Refined.Apply(fx.collector.Dataset().Matrix)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := pca.FitWorkers(refined, inc.opts.VarianceTarget, 1)
		if err != nil {
			t.Fatal(err)
		}
		if cur.NumPC != batch.NumPC {
			t.Fatalf("tick %d: NumPC %d warm vs %d batch", i, cur.NumPC, batch.NumPC)
		}
		for k := 0; k < batch.NumPC; k++ {
			if d := math.Abs(cur.Explained[k] - batch.Explained[k]); d > 1e-9 {
				t.Fatalf("tick %d: explained[%d] differs from batch by %g", i, k, d)
			}
			for j := range batch.Components[k] {
				if d := math.Abs(cur.Components[k][j] - batch.Components[k][j]); d > 1e-7 {
					t.Fatalf("tick %d: component[%d][%d] differs from batch by %g", i, k, j, d)
				}
			}
		}
	}
	if inc.Ticks() == 0 {
		t.Fatal("every tick rebuilt; nothing warm was tested")
	}
	t.Logf("%d incremental ticks, %d rebuilds, %d warm Jacobi sweeps", inc.Ticks(), inc.Rebuilds(), warmSweeps)
}

// TestTickSpanRecordsSweeps checks that a tick's own span says whether the
// warm start converged: a re-measure tick records 0 Jacobi sweeps, a tick
// that appends a scenario records the sweeps its eigensolve still ran.
func TestTickSpanRecordsSweeps(t *testing.T) {
	fx := newStreamFixture(t, 10, 1)
	tr := obs.NewTracer(obs.NewRegistry())
	ctx := obs.WithTracer(t.Context(), tr)
	tick := func(changed []int) int {
		t.Helper()
		touched, err := fx.collector.Tick(t.Context(), changed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fx.inc.TickContext(ctx, touched); err != nil {
			t.Fatal(err)
		}
		roots := tr.Snapshot()
		span := roots[len(roots)-1]
		if span.Name != "analyze.tick" {
			t.Fatalf("last root span is %q, want analyze.tick", span.Name)
		}
		for _, a := range span.Attrs {
			if a.Key == "sweeps" {
				if a.Value != fx.inc.Analysis().PCA.Sweeps {
					t.Errorf("span sweeps = %v, model ran %d", a.Value, fx.inc.Analysis().PCA.Sweeps)
				}
				return a.Value.(int)
			}
		}
		t.Fatalf("analyze.tick span has no sweeps attribute: %+v", span.Attrs)
		return 0
	}
	if got := tick([]int{3, 17}); got != 0 {
		t.Errorf("re-measure tick ran %d sweeps, want 0", got)
	}
	fx.set.Add(fx.rest[0])
	if got := tick(nil); got == 0 {
		t.Error("append tick ran no sweeps")
	}
}
