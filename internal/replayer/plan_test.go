package replayer

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"flare/internal/machine"
	"flare/internal/workload"
)

func testPlan(t *testing.T) (*Plan, fixture) {
	t.Helper()
	f := testFixture(t)
	plan, err := NewPlan(f.an, machine.DefaultShape())
	if err != nil {
		t.Fatal(err)
	}
	return plan, f
}

func TestNewPlanInvariants(t *testing.T) {
	plan, f := testPlan(t)
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(plan.Clusters) != len(f.an.Representatives) {
		t.Errorf("plan has %d clusters, analysis %d", len(plan.Clusters), len(f.an.Representatives))
	}
	for _, pc := range plan.Clusters {
		if len(pc.Fallbacks) > maxPlanFallbacks {
			t.Errorf("cluster %d embeds %d fallbacks, cap is %d", pc.Cluster, len(pc.Fallbacks), maxPlanFallbacks)
		}
		if len(pc.JobInstances) == 0 {
			t.Errorf("cluster %d has no job instance accounting", pc.Cluster)
		}
	}
}

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan(nil, machine.DefaultShape()); err == nil {
		t.Error("nil analysis did not error")
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	plan, _ := testPlan(t)
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPlanJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.MachineShape != plan.MachineShape || len(back.Clusters) != len(plan.Clusters) {
		t.Fatal("round trip changed plan structure")
	}
	for i := range plan.Clusters {
		if back.Clusters[i].Representative.Key() != plan.Clusters[i].Representative.Key() {
			t.Errorf("cluster %d representative changed", i)
		}
		if back.Clusters[i].Weight != plan.Clusters[i].Weight {
			t.Errorf("cluster %d weight changed", i)
		}
	}
}

func TestReadPlanJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadPlanJSON(strings.NewReader("{broken")); err == nil {
		t.Error("garbage did not error")
	}
	if _, err := ReadPlanJSON(strings.NewReader(`{"machine_shape":"default","clusters":[]}`)); err == nil {
		t.Error("empty plan did not error")
	}
	// Weights not summing to 1.
	bad := `{"machine_shape":"default","clusters":[
		{"cluster":0,"weight":0.2,"representative":{"placements":[{"job":"DC","instances":1}]},"job_instances":{"DC":1}}]}`
	if _, err := ReadPlanJSON(strings.NewReader(bad)); err == nil {
		t.Error("bad weights did not error")
	}
}

func TestEstimateFromPlanMatchesLiveEstimate(t *testing.T) {
	plan, f := testPlan(t)
	feat := machine.CacheSizing(12)
	live, err := EstimateAllJob(context.Background(), f.an, f.cat, f.inh, nil, f.cfg, feat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fromPlan, err := EstimateFromPlan(context.Background(), plan, f.cat, f.inh, f.cfg, feat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Both replay the same representatives through the same loop, so the
	// estimates are identical, not just close.
	if fromPlan.ReductionPct != live.ReductionPct {
		t.Errorf("plan estimate %v != live estimate %v", fromPlan.ReductionPct, live.ReductionPct)
	}
	if !reflect.DeepEqual(fromPlan.PerCluster, live.PerCluster) {
		t.Errorf("plan per-cluster impacts %+v != live %+v", fromPlan.PerCluster, live.PerCluster)
	}
	if fromPlan.ScenariosReplayed != live.ScenariosReplayed {
		t.Errorf("plan cost %d != live cost %d", fromPlan.ScenariosReplayed, live.ScenariosReplayed)
	}
}

func TestEstimateFromPlanShapeMismatch(t *testing.T) {
	plan, f := testPlan(t)
	small := machine.BaselineConfig(machine.SmallShape())
	if _, err := EstimateFromPlan(context.Background(), plan, f.cat, f.inh, small, machine.Baseline(), DefaultOptions()); err == nil {
		t.Error("shape mismatch did not error (Sec 5.5 requires per-shape plans)")
	}
}

func TestEstimatePerJobFromPlan(t *testing.T) {
	plan, f := testPlan(t)
	feat := machine.DVFSCap(1.8)
	for _, p := range f.cat.HPJobs() {
		live, err := EstimatePerJob(context.Background(), f.an, f.cat, f.inh, nil, f.cfg, feat, p.Name, DefaultOptions())
		if err != nil {
			t.Fatalf("%s live: %v", p.Name, err)
		}
		fromPlan, err := EstimatePerJobFromPlan(context.Background(), plan, f.cat, f.inh, f.cfg, feat, p.Name, DefaultOptions())
		if err != nil {
			t.Fatalf("%s plan: %v", p.Name, err)
		}
		// The plan truncates fallbacks, so small deviations are expected.
		if math.Abs(live.ReductionPct-fromPlan.ReductionPct) > 2.0 {
			t.Errorf("%s: plan per-job estimate %v deviates from live %v",
				p.Name, fromPlan.ReductionPct, live.ReductionPct)
		}
	}
	if _, err := EstimatePerJobFromPlan(context.Background(), plan, f.cat, f.inh, f.cfg, feat, "mystery", DefaultOptions()); err == nil {
		t.Error("unknown job did not error")
	}
}

// TestPerJobRejectsLPJobSameFromBothSources checks that a per-job
// estimate for an LP job, which has no per-job impact, fails up front
// with the same error from a live analysis and from a plan.
func TestPerJobRejectsLPJobSameFromBothSources(t *testing.T) {
	plan, f := testPlan(t)
	feat := machine.DVFSCap(1.8)
	_, liveErr := EstimatePerJob(context.Background(), f.an, f.cat, f.inh, nil, f.cfg, feat, workload.Mcf, DefaultOptions())
	_, planErr := EstimatePerJobFromPlan(context.Background(), plan, f.cat, f.inh, f.cfg, feat, workload.Mcf, DefaultOptions())
	if liveErr == nil || planErr == nil {
		t.Fatalf("LP job accepted: live %v, plan %v", liveErr, planErr)
	}
	if liveErr.Error() != planErr.Error() {
		t.Errorf("live error %q != plan error %q", liveErr, planErr)
	}
	if !strings.Contains(liveErr.Error(), "not an HP job") {
		t.Errorf("error %q does not say the job is not HP", liveErr)
	}
}

func FuzzReadPlanJSON(f *testing.F) {
	f.Add(`{"machine_shape":"default","clusters":[{"cluster":0,"weight":1,"representative":{"placements":[{"job":"DC","instances":1}]},"job_instances":{"DC":1}}]}`)
	f.Add(`{"machine_shape":"x","clusters":[]}`)
	f.Add(`not json`)
	f.Fuzz(func(t *testing.T, input string) {
		plan, err := ReadPlanJSON(strings.NewReader(input))
		if err != nil {
			return
		}
		// Anything accepted must satisfy the invariants and survive a
		// write/read round trip.
		if err := plan.Validate(); err != nil {
			t.Fatalf("accepted plan fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := plan.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted plan fails to serialise: %v", err)
		}
		if _, err := ReadPlanJSON(&buf); err != nil {
			t.Fatalf("serialised plan fails to re-parse: %v", err)
		}
	})
}
