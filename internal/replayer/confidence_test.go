package replayer

import (
	"context"
	"reflect"
	"testing"

	"flare/internal/machine"
)

func TestEstimateWithCIValidation(t *testing.T) {
	f := testFixture(t)
	feat := machine.CacheSizing(12)
	if _, err := EstimateAllJobWithCI(context.Background(), nil, f.cat, f.inh, f.cfg, feat, 2, 0.95, DefaultOptions()); err == nil {
		t.Error("nil analysis did not error")
	}
	if _, err := EstimateAllJobWithCI(context.Background(), f.an, f.cat, f.inh, f.cfg, feat, -1, 0.95, DefaultOptions()); err == nil {
		t.Error("negative depth did not error")
	}
	if _, err := EstimateAllJobWithCI(context.Background(), f.an, f.cat, f.inh, f.cfg, feat, 1, 0, DefaultOptions()); err == nil {
		t.Error("level 0 did not error")
	}
}

func TestEstimateWithCIZeroExtraMatchesPointEstimate(t *testing.T) {
	f := testFixture(t)
	feat := machine.CacheSizing(12)
	point, err := EstimateAllJob(context.Background(), f.an, f.cat, f.inh, f.cfg, feat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	withCI, err := EstimateAllJobWithCI(context.Background(), f.an, f.cat, f.inh, f.cfg, feat, 0, 0.95, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if withCI.ReductionPct != point.ReductionPct {
		t.Errorf("depth-0 CI estimate %v != point estimate %v", withCI.ReductionPct, point.ReductionPct)
	}
	if !reflect.DeepEqual(withCI.PerCluster, point.PerCluster) {
		t.Errorf("depth-0 per-cluster impacts %+v != point %+v", withCI.PerCluster, point.PerCluster)
	}
	if withCI.CI.HalfWidth() != 0 {
		t.Errorf("depth-0 interval has half-width %v, want 0 (no variance info)", withCI.CI.HalfWidth())
	}
	if withCI.ScenariosReplayed != point.ScenariosReplayed {
		t.Errorf("depth-0 cost %d != point cost %d", withCI.ScenariosReplayed, point.ScenariosReplayed)
	}
}

func TestEstimateWithCICoversTruth(t *testing.T) {
	f := testFixture(t)
	feat := machine.CacheSizing(12)
	truth := groundTruth(t, f, feat)

	est, err := EstimateAllJobWithCI(context.Background(), f.an, f.cat, f.inh, f.cfg, feat, 3, 0.95, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if est.CI.HalfWidth() <= 0 {
		t.Fatal("depth-3 interval is degenerate")
	}
	// The estimator is slightly biased (cluster means from nearest members,
	// not random draws), so allow truth within 2 half-widths.
	if d := truth - est.CI.Center; d > 2*est.CI.HalfWidth() || d < -2*est.CI.HalfWidth() {
		t.Errorf("truth %v outside 2x the CI %+v", truth, est.CI)
	}
	// Cost scales with depth.
	wantMax := len(f.an.Representatives) * 4
	if est.ScenariosReplayed > wantMax {
		t.Errorf("cost %d exceeds depth bound %d", est.ScenariosReplayed, wantMax)
	}
	if est.ScenariosReplayed <= len(f.an.Representatives) {
		t.Errorf("cost %d did not grow with depth", est.ScenariosReplayed)
	}
}

func TestEstimateWithCINarrowsWithDepth(t *testing.T) {
	f := testFixture(t)
	feat := machine.DVFSCap(1.8)
	shallow, err := EstimateAllJobWithCI(context.Background(), f.an, f.cat, f.inh, f.cfg, feat, 1, 0.95, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	deep, err := EstimateAllJobWithCI(context.Background(), f.an, f.cat, f.inh, f.cfg, feat, 6, 0.95, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// More replays per cluster shrink the stratified standard error
	// (1/sqrt(n) within clusters); allow slack for variance estimation
	// noise at these small depths.
	if deep.CI.HalfWidth() > shallow.CI.HalfWidth()*1.5 {
		t.Errorf("interval did not tighten with depth: depth-1 %v, depth-6 %v",
			shallow.CI.HalfWidth(), deep.CI.HalfWidth())
	}
}
