package perfscore

import (
	"math/rand"
	"testing"

	"flare/internal/machine"
	"flare/internal/scenario"
	"flare/internal/workload"
)

// replayFixture returns a Scorer for the first paper feature on table
// (nil for none), a representative-sized scenario and the replayer's default noise
// options, as one replayed representative of an estimate sees them.
func replayFixture(tb testing.TB, table *RelaxTable) (*Scorer, scenario.Scenario, *workload.Catalog, Options) {
	tb.Helper()
	cfg := machine.BaselineConfig(machine.DefaultShape())
	cat := workload.DefaultCatalog()
	inh, err := NewInherent(cfg, cat)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewScorer(cfg, machine.PaperFeatures()[0], inh, table)
	if err != nil {
		tb.Fatal(err)
	}
	sc, err := scenario.New([]scenario.Placement{
		{Job: workload.DataCaching, Instances: 3},
		{Job: workload.WebSearch, Instances: 2},
		{Job: workload.GraphAnalytics, Instances: 2},
		{Job: workload.Mcf, Instances: 4},
		{Job: workload.Libquantum, Instances: 2},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s, sc, cat, Options{NoiseStd: 0.01, Samples: 3, Rand: rand.New(rand.NewSource(1))}
}

// TestScoreReplayAllocs caps the allocations of one replayed
// representative on a reused Scorer, with and without a relaxed-state
// table: after the first replay sizes the buffers (and fills the table),
// a replay allocates nothing.
func TestScoreReplayAllocs(t *testing.T) {
	for _, table := range []*RelaxTable{nil, NewRelaxTable()} {
		s, sc, cat, opts := replayFixture(t, table)
		if _, err := s.Scenario(sc, cat, opts); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := s.Scenario(sc, cat, opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("table %t: one reused-pair replay allocates %v times, want 0", table != nil, allocs)
		}
	}
}

// BenchmarkScoreReplay measures one replayed representative on a reused
// Scorer: both configurations relaxed once, three noisy MIPS samples
// each, scored.
func BenchmarkScoreReplay(b *testing.B) {
	s, sc, cat, opts := replayFixture(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Scenario(sc, cat, opts); err != nil {
			b.Fatal(err)
		}
	}
}
