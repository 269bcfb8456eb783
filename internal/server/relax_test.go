package server

import (
	"fmt"
	"math/rand"
	"testing"

	"flare/internal/machine"
	"flare/internal/perfscore"
	"flare/internal/replayer"
)

// TestRelaxTableImpactsMatchFresh scores every representative and
// per-job fallback of the test pipeline under the baseline and the three
// paper features on one shared relaxed-state table, twice (the first
// score of a scenario on a configuration relaxes and records it, the
// second reads it), and requires the Impact of a fresh EvaluateScenario
// with the replayer's noise, bit for bit, per-job reductions and the
// random source's next draw included.
func TestRelaxTableImpactsMatchFresh(t *testing.T) {
	p := testPipeline(t)
	an, cat, inh, base := p.Analysis(), p.Jobs(), p.Inherent(), p.Machine()
	ropts := replayer.DefaultOptions()
	opts := func(seed int64) perfscore.Options {
		return perfscore.Options{NoiseStd: ropts.ReconstructionNoiseStd, Samples: ropts.Samples,
			Rand: rand.New(rand.NewSource(seed))}
	}
	table := perfscore.NewRelaxTable()
	scored := 0
	for _, feat := range append([]machine.Feature{machine.Baseline()}, machine.PaperFeatures()...) {
		s, err := perfscore.NewScorer(base, feat, inh, table)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range an.Representatives {
			for _, id := range rep.Ranked {
				sc, err := an.Dataset.Scenarios.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				wantOpts := opts(int64(id))
				want, err := perfscore.EvaluateScenario(base, feat, sc, cat, inh, wantOpts)
				if err != nil {
					t.Fatal(err)
				}
				next := wantOpts.Rand.Int63()
				for pass := 0; pass < 2; pass++ {
					gotOpts := opts(int64(id))
					got, err := s.Scenario(sc, cat, gotOpts)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s/scenario %d/pass %d", feat.Name, id, pass)
					if gotOpts.Rand.Int63() != next {
						t.Errorf("%s: random source diverged after the score", label)
					}
					if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", perfscore.Impact{ScenarioID: want.ScenarioID,
						Baseline: want.Baseline, Feature: want.Feature, ReductionPct: want.ReductionPct}) {
						t.Errorf("%s: got %+v, want %+v", label, got, want)
					}
					for _, prof := range cat.HPJobs() {
						if g, w := s.JobReductionPct(prof.Name), want.JobReductionPct[prof.Name]; fmt.Sprint(g) != fmt.Sprint(w) {
							t.Errorf("%s: job %s reduction %v, want %v", label, prof.Name, g, w)
						}
					}
					scored++
				}
			}
		}
	}
	if scored == 0 {
		t.Fatal("no scenario scored")
	}
}
