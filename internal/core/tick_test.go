package core

import (
	"context"
	"reflect"
	"testing"

	"flare/internal/machine"
	"flare/internal/replayer"
	"flare/internal/scenario"
)

func evaluateAll(t *testing.T, p *Pipeline) map[string]*replayer.Estimate {
	t.Helper()
	out := make(map[string]*replayer.Estimate)
	for _, feat := range machine.PaperFeatures() {
		est, err := p.EvaluateFeature(feat)
		if err != nil {
			t.Fatalf("%s: %v", feat.Name, err)
		}
		out[feat.Name] = est
	}
	return out
}

// TestTickSequenceMatchesFullRebuild is the pipeline-level golden test for
// the streaming path: growing the population through a sequence of ticks
// must keep the dataset byte-identical to batch profiling of the full
// population, and a full re-analysis afterwards must produce estimates
// identical to a pipeline that never ticked at all. The tick-time
// estimates themselves come from the incremental approximation, so they
// are only required to stay in the plausible range.
func TestTickSequenceMatchesFullRebuild(t *testing.T) {
	all := testScenarios(t).All()
	if len(all) < 40 {
		t.Fatalf("trace produced %d scenarios, need at least 40", len(all))
	}
	cfg := DefaultConfig()
	cfg.Analyze.Clusters = 12

	// Batch reference: profile and analyse everything at once.
	batch, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := scenario.NewSet()
	for _, sc := range all {
		full.Add(sc)
	}
	if err := batch.Profile(full); err != nil {
		t.Fatal(err)
	}
	if err := batch.Analyze(); err != nil {
		t.Fatal(err)
	}
	batchEst := evaluateAll(t, batch)

	// Streaming pipeline: profile a prefix, then grow via two ticks (the
	// second also re-measures two existing scenarios).
	stream, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	grown := scenario.NewSet()
	prefix := len(all) - 20
	for _, sc := range all[:prefix] {
		grown.Add(sc)
	}
	if err := stream.Profile(grown); err != nil {
		t.Fatal(err)
	}
	if err := stream.Analyze(); err != nil {
		t.Fatal(err)
	}
	for _, sc := range all[:prefix+12] {
		grown.Add(sc)
	}
	if err := stream.Tick(nil); err != nil {
		t.Fatal(err)
	}
	for _, sc := range all {
		grown.Add(sc)
	}
	if err := stream.Tick([]int{0, 5}); err != nil {
		t.Fatal(err)
	}

	// Exactness is guaranteed for the dataset: the per-scenario RNG
	// substreams make measurement independent of when a scenario was added.
	a, b := batch.Dataset(), stream.Dataset()
	if a.Matrix.Rows() != b.Matrix.Rows() || a.Matrix.Cols() != b.Matrix.Cols() {
		t.Fatalf("matrix %dx%d ticked vs %dx%d batch",
			b.Matrix.Rows(), b.Matrix.Cols(), a.Matrix.Rows(), a.Matrix.Cols())
	}
	for i := 0; i < a.Matrix.Rows(); i++ {
		for j := 0; j < a.Matrix.Cols(); j++ {
			if a.Matrix.At(i, j) != b.Matrix.At(i, j) {
				t.Fatalf("cell (%d,%d): %v ticked vs %v batch", i, j, b.Matrix.At(i, j), a.Matrix.At(i, j))
			}
		}
	}
	if !reflect.DeepEqual(a.JobMIPS, b.JobMIPS) {
		t.Fatal("JobMIPS differ between ticked and batch datasets")
	}

	// The incremental analysis covers the grown population and yields
	// plausible estimates (exactness is not promised on this path).
	if got := stream.Analysis().Scores.Rows(); got != len(all) {
		t.Fatalf("ticked analysis covers %d scenarios, want %d", got, len(all))
	}
	for name, est := range evaluateAll(t, stream) {
		if est.ReductionPct <= 0 || est.ReductionPct > 60 {
			t.Errorf("%s: incremental estimate %v, want in (0, 60]", name, est.ReductionPct)
		}
	}

	// A full re-analysis of the ticked pipeline is byte-identical to the
	// batch pipeline: identical datasets in, identical estimates out.
	if err := stream.Analyze(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stream.Analysis().PCA, batch.Analysis().PCA) {
		t.Error("rebuilt PCA differs from batch")
	}
	if !reflect.DeepEqual(stream.Analysis().Clustering, batch.Analysis().Clustering) {
		t.Error("rebuilt clustering differs from batch")
	}
	rebuiltEst := evaluateAll(t, stream)
	if !reflect.DeepEqual(rebuiltEst, batchEst) {
		t.Error("estimates after full rebuild differ from the batch pipeline")
	}
}

func TestTickBeforeProfileErrors(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Tick(nil); err == nil {
		t.Error("Tick before Profile did not error")
	}
}

// TestTickBeforeAnalyzeExtendsDataset checks the documented contract that
// ticks without an analysis just grow the dataset.
func TestTickBeforeAnalyzeExtendsDataset(t *testing.T) {
	all := testScenarios(t).All()
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	set := scenario.NewSet()
	for _, sc := range all[:len(all)-5] {
		set.Add(sc)
	}
	if err := p.Profile(set); err != nil {
		t.Fatal(err)
	}
	for _, sc := range all {
		set.Add(sc)
	}
	if err := p.Tick(nil); err != nil {
		t.Fatal(err)
	}
	if got := p.Dataset().Matrix.Rows(); got != len(all) {
		t.Fatalf("dataset covers %d scenarios after tick, want %d", got, len(all))
	}
	if p.Analysis() != nil {
		t.Error("tick before Analyze produced an analysis")
	}
}

// TestTickPublishesSnapshots checks the epoch contract: New publishes
// epoch 0 and each successful Profile, Analyze and Tick the next one. A
// tick that fails, here on a scenario naming an unknown job, publishes
// nothing and leaves the pipeline able to tick again, and a tick never
// changes a snapshot published before it.
func TestTickPublishesSnapshots(t *testing.T) {
	all := testScenarios(t).All()
	set := scenario.NewSet()
	for _, sc := range all[:len(all)-1] {
		set.Add(sc)
	}
	cfg := DefaultConfig()
	cfg.Analyze.Clusters = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e := p.Snapshot().Epoch; e != 0 {
		t.Fatalf("epoch after New = %d, want 0", e)
	}
	if err := p.Profile(set); err != nil {
		t.Fatal(err)
	}
	if err := p.Analyze(); err != nil {
		t.Fatal(err)
	}
	before := p.Snapshot()
	if before.Epoch != 2 {
		t.Fatalf("epoch after Profile and Analyze = %d, want 2", before.Epoch)
	}

	ctx := context.Background()
	var bad []scenario.Scenario
	for n := 1; n <= 2; n++ {
		sc, err := scenario.New([]scenario.Placement{{Job: "no-such-job", Instances: n}})
		if err != nil {
			t.Fatal(err)
		}
		bad = append(bad, sc)
	}
	if _, _, _, err := p.TickContext(ctx, bad, nil); err == nil {
		t.Fatal("tick with an unknown job succeeded")
	}
	if p.Snapshot() != before {
		t.Fatal("failed tick published a snapshot")
	}

	snap, added, remeasured, err := p.TickContext(ctx, all[len(all)-1:], []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 || remeasured != 1 || snap.Epoch != 3 || p.Snapshot() != snap {
		t.Errorf("tick: added %d, remeasured %d, epoch %d (current %d), want 1, 1 and 3",
			added, remeasured, snap.Epoch, p.Snapshot().Epoch)
	}
	if n := len(all); snap.Dataset.Scenarios.Len() != n || snap.Dataset.Matrix.Rows() != n ||
		snap.Analysis.Dataset != snap.Dataset || snap.Analysis.Scores.Rows() != n {
		t.Errorf("tick covers %d scenarios, %d rows, %d scores; want %d each",
			snap.Dataset.Scenarios.Len(), snap.Dataset.Matrix.Rows(), snap.Analysis.Scores.Rows(), n)
	}
	if before.Dataset.Scenarios.Len() != len(all)-1 || before.Analysis.Scores.Rows() != len(all)-1 {
		t.Error("tick changed an earlier snapshot")
	}
}
