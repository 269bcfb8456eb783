package core

import (
	"context"
	"fmt"
	"testing"

	"flare/internal/machine"
	"flare/internal/replayer"
	"flare/internal/scenario"
)

// perJobEstimates renders the per-job estimate of every HP job under
// the three paper features, one string per estimate (%+v prints each
// float's exact value): through snap's memoised strata when fresh is
// false, else through replayer.EstimatePerJob, which builds the strata
// afresh. Both replay on snap's relaxed-state table.
func perJobEstimates(t *testing.T, p *Pipeline, snap *Snapshot, fresh bool) []string {
	t.Helper()
	ctx := context.Background()
	var out []string
	for _, feat := range machine.PaperFeatures() {
		for _, prof := range p.cfg.Jobs.HPJobs() {
			var est *replayer.JobEstimate
			var err error
			if fresh {
				est, err = replayer.EstimatePerJob(ctx, snap.Analysis, p.cfg.Jobs, p.inherent, snap.relaxed,
					p.cfg.Machine, feat, prof.Name, p.cfg.Replay)
			} else {
				est, err = snap.EvaluateFeatureForJob(ctx, feat, prof.Name)
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%+v", *est))
		}
	}
	return out
}

// TestJobStrataMatchFreshStrata requires every HP job's per-job estimate
// under the three paper features to equal, bit for bit, one built from
// fresh strata: on the analysed snapshot, first building its memoised
// strata and then reading them, and again on each snapshot a few ticks
// publish (re-measures and an appended scenario). The first snapshot
// keeps its own strata: after the ticks its estimates are unchanged.
func TestJobStrataMatchFreshStrata(t *testing.T) {
	all := testScenarios(t).All()
	set := scenario.NewSet()
	for _, sc := range all[:len(all)-1] {
		set.Add(sc)
	}
	p := relaxPipeline(t, set)
	first := p.Snapshot()
	firstWant := perJobEstimates(t, p, first, true)
	checkSame(t, "building the strata", perJobEstimates(t, p, first, false), firstWant)
	checkSame(t, "reading the strata", perJobEstimates(t, p, first, false), firstWant)

	ticks := []struct {
		incoming []scenario.Scenario
		changed  []int
	}{
		{nil, []int{1, 5}},
		{all[len(all)-1:], []int{7}},
		{nil, []int{2, 9, 40}},
	}
	for i, tk := range ticks {
		snap, _, _, err := p.TickContext(context.Background(), tk.incoming, tk.changed)
		if err != nil {
			t.Fatal(err)
		}
		want := perJobEstimates(t, p, snap, true)
		label := fmt.Sprintf("tick %d", i+1)
		checkSame(t, label+", building", perJobEstimates(t, p, snap, false), want)
		checkSame(t, label+", reading", perJobEstimates(t, p, snap, false), want)
	}
	checkSame(t, "first snapshot after the ticks", perJobEstimates(t, p, first, false), firstWant)
}
