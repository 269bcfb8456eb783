package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"flare/internal/machine"
	"flare/internal/obs"
	"flare/internal/perfscore"
	"flare/internal/replayer"
	"flare/internal/scenario"
	"flare/internal/workload"
)

// relaxFeatures are the configurations the relaxed-state tests replay:
// the baseline itself and the three paper features.
func relaxFeatures() []machine.Feature {
	return append([]machine.Feature{machine.Baseline()}, machine.PaperFeatures()...)
}

// freshEstimates renders every all-job and per-job estimate of snap's
// analysis, each replayed without a relaxed-state table, one string per
// estimate; %+v prints each float's exact value, so equal strings mean
// equal bits.
func freshEstimates(t *testing.T, p *Pipeline, snap *Snapshot) []string {
	t.Helper()
	ctx := context.Background()
	var out []string
	for _, feat := range relaxFeatures() {
		est, err := replayer.EstimateAllJob(ctx, snap.Analysis, p.cfg.Jobs, p.inherent, nil, p.cfg.Machine, feat, p.cfg.Replay)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%+v", *est))
		for _, prof := range p.cfg.Jobs.HPJobs() {
			jest, err := replayer.EstimatePerJob(ctx, snap.Analysis, p.cfg.Jobs, p.inherent, nil, p.cfg.Machine, feat, prof.Name, p.cfg.Replay)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%+v", *jest))
		}
	}
	return out
}

// snapshotEstimates renders the same estimates as freshEstimates through
// snap's own evaluation path, which replays on its relaxed-state table.
func snapshotEstimates(p *Pipeline, snap *Snapshot) ([]string, error) {
	ctx := context.Background()
	var out []string
	for _, feat := range relaxFeatures() {
		est, err := snap.EvaluateFeature(ctx, feat)
		if err != nil {
			return nil, err
		}
		out = append(out, fmt.Sprintf("%+v", *est))
		for _, prof := range p.cfg.Jobs.HPJobs() {
			jest, err := snap.EvaluateFeatureForJob(ctx, feat, prof.Name)
			if err != nil {
				return nil, err
			}
			out = append(out, fmt.Sprintf("%+v", *jest))
		}
	}
	return out, nil
}

// mustSnapshotEstimates is snapshotEstimates on the test goroutine.
func mustSnapshotEstimates(t *testing.T, p *Pipeline, snap *Snapshot) []string {
	t.Helper()
	out, err := snapshotEstimates(p, snap)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkSame fails unless got and want hold the same estimates.
func checkSame(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d estimates, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: estimate %d:\n got %s\nwant %s", label, i, got[i], want[i])
		}
	}
}

// relaxPipeline profiles and analyses set on a fresh pipeline.
func relaxPipeline(t *testing.T, set *scenario.Set) *Pipeline {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Analyze.Clusters = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Profile(set); err != nil {
		t.Fatal(err)
	}
	if err := p.Analyze(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRelaxTableMatchesFreshReplays replays every all-job and per-job
// estimate under the baseline and the three paper features on the
// snapshot's table, first filling it and then reading it, and requires
// the estimates of a replay without a table, bit for bit. A tick that
// forces a drift rebuild keeps the table, and its estimates must match
// fresh replays of the rebuilt analysis too.
func TestRelaxTableMatchesFreshReplays(t *testing.T) {
	all := testScenarios(t).All()
	set := scenario.NewSet()
	for _, sc := range all {
		set.Add(sc)
	}
	p := relaxPipeline(t, set)
	snap := p.Snapshot()
	if snap.relaxed == nil {
		t.Fatal("an analysed snapshot carries no relaxed-state table")
	}
	want := freshEstimates(t, p, snap)
	checkSame(t, "filling the table", mustSnapshotEstimates(t, p, snap), want)
	checkSame(t, "reading the table", mustSnapshotEstimates(t, p, snap), want)

	// A colocation far from every profiled one trips the drift gate.
	novel, err := scenario.New([]scenario.Placement{
		{Job: workload.Libquantum, Instances: 9}, {Job: workload.WebSearch, Instances: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(obs.NewRegistry())
	after, _, _, err := p.TickContext(obs.WithTracer(context.Background(), tr), []scenario.Scenario{novel}, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	roots := tr.Snapshot()
	if len(roots) != 1 || !hasAttr(roots[0], "rebuilt", true) {
		t.Fatalf("tick did not rebuild the analysis: %+v", roots)
	}
	if after.relaxed != snap.relaxed {
		t.Error("tick did not pass the relaxed-state table on")
	}
	want = freshEstimates(t, p, after)
	checkSame(t, "after a rebuilding tick", mustSnapshotEstimates(t, p, after), want)
}

// hasAttr reports whether s carries attribute key with value v.
func hasAttr(s obs.SpanSnapshot, key string, v any) bool {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value == v
		}
	}
	return false
}

// TestRelaxTableStaysWithItsPopulation re-profiles a pipeline with the
// same scenarios in reverse order, so every ID names another colocation,
// and fills the new snapshot's table first, with every scenario: the new
// estimates must match fresh replays of the new analysis, and an estimate
// on the old snapshot must still equal a fresh pipeline's over the old
// population.
func TestRelaxTableStaysWithItsPopulation(t *testing.T) {
	all := testScenarios(t).All()
	set, reversed := scenario.NewSet(), scenario.NewSet()
	for i, sc := range all {
		set.Add(sc)
		reversed.Add(all[len(all)-1-i])
	}
	fresh := relaxPipeline(t, set)
	want := freshEstimates(t, fresh, fresh.Snapshot())

	p := relaxPipeline(t, set)
	old := p.Snapshot()
	if err := p.Profile(reversed); err != nil {
		t.Fatal(err)
	}
	if err := p.Analyze(); err != nil {
		t.Fatal(err)
	}
	cur := p.Snapshot()
	if cur.relaxed == old.relaxed {
		t.Fatal("Profile kept the old population's relaxed-state table")
	}
	checkSame(t, "new population", mustSnapshotEstimates(t, p, cur), freshEstimates(t, p, cur))
	// Record every scenario of the new population, so a table shared with
	// the old snapshot would hand it another colocation's state by ID.
	for _, feat := range relaxFeatures() {
		s, err := perfscore.NewScorer(p.cfg.Machine, feat, p.inherent, cur.relaxed)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range cur.Dataset.Scenarios.All() {
			if _, err := s.Scenario(sc, p.cfg.Jobs, perfscore.Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkSame(t, "old snapshot after a re-profile", mustSnapshotEstimates(t, p, old), want)
}

// TestRelaxTableConcurrentEstimates runs estimates from four goroutines
// on one snapshot's empty table; each must match a fresh replay. Run it
// under -race.
func TestRelaxTableConcurrentEstimates(t *testing.T) {
	set := scenario.NewSet()
	for _, sc := range testScenarios(t).All() {
		set.Add(sc)
	}
	p := relaxPipeline(t, set)
	snap := p.Snapshot()
	want := freshEstimates(t, p, snap)
	got := make([][]string, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = snapshotEstimates(p, snap)
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		checkSame(t, fmt.Sprintf("goroutine %d", g), got[g], want)
	}
}
