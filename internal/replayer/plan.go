package replayer

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"flare/internal/analyzer"
	"flare/internal/machine"
	"flare/internal/perfscore"
	"flare/internal/scenario"
	"flare/internal/workload"
)

// Plan is the portable replay artifact FLARE hands to a testbed team: the
// representative colocations, their weights, and per-cluster fallback
// scenarios for per-job estimation. A plan is self-contained — evaluating
// a feature against it needs no profiled dataset or analysis state — so
// it can be produced once per datacenter (or per machine shape, Sec 5.5)
// and reused for every subsequent feature evaluation.
type Plan struct {
	// MachineShape names the shape the representatives were derived on;
	// estimates against a different shape are rejected (Sec 5.5).
	MachineShape string        `json:"machine_shape"`
	Clusters     []PlanCluster `json:"clusters"`
}

// PlanCluster is one representative with its aggregation weight.
type PlanCluster struct {
	Cluster int     `json:"cluster"`
	Weight  float64 `json:"weight"`
	// Representative is the scenario replayed for all-job estimation.
	Representative scenario.Scenario `json:"representative"`
	// Fallbacks are the next-nearest cluster members, consulted in order
	// when the representative lacks a job of interest.
	Fallbacks []scenario.Scenario `json:"fallbacks,omitempty"`
	// JobInstances counts each job's instances across the whole cluster
	// (the per-job weighting basis).
	JobInstances map[string]int `json:"job_instances"`
}

// maxPlanFallbacks bounds the fallback depth embedded per cluster.
const maxPlanFallbacks = 8

// NewPlan extracts the replay plan from a completed analysis.
func NewPlan(an *analyzer.Analysis, shape machine.Shape) (*Plan, error) {
	strata, err := liveStrata(an, func(rep analyzer.Representative) []int { return rep.Ranked })
	if err != nil {
		return nil, err
	}
	plan := &Plan{MachineShape: shape.Name}
	for _, st := range strata {
		pc := PlanCluster{
			Cluster:        st.cluster,
			Weight:         st.weight,
			Representative: st.candidates[0],
			JobInstances:   make(map[string]int),
		}
		if n := min(len(st.candidates), 1+maxPlanFallbacks); n > 1 {
			pc.Fallbacks = st.candidates[1:n]
		}
		for _, member := range st.candidates {
			for _, p := range member.Placements {
				pc.JobInstances[p.Job] += p.Instances
			}
		}
		plan.Clusters = append(plan.Clusters, pc)
	}
	return plan, nil
}

// Validate checks plan invariants.
func (p *Plan) Validate() error {
	if len(p.Clusters) == 0 {
		return errors.New("replayer: plan has no clusters")
	}
	var weight float64
	for _, pc := range p.Clusters {
		if pc.Weight <= 0 {
			return fmt.Errorf("replayer: cluster %d has non-positive weight", pc.Cluster)
		}
		if len(pc.Representative.Placements) == 0 {
			return fmt.Errorf("replayer: cluster %d has an empty representative", pc.Cluster)
		}
		weight += pc.Weight
	}
	if weight < 0.99 || weight > 1.01 {
		return fmt.Errorf("replayer: plan weights sum to %v, want 1", weight)
	}
	return nil
}

// WriteJSON serialises the plan.
func (p *Plan) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		return fmt.Errorf("replayer: encoding plan: %w", err)
	}
	return nil
}

// ReadPlanJSON deserialises and validates a plan.
func ReadPlanJSON(r io.Reader) (*Plan, error) {
	var p Plan
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("replayer: decoding plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// EstimateFromPlan estimates a feature's all-job impact by replaying the
// plan's representatives — the standalone equivalent of EstimateAllJob.
func EstimateFromPlan(ctx context.Context, plan *Plan, cat *workload.Catalog, inh *perfscore.Inherent,
	base machine.Config, feat machine.Feature, opts Options) (*Estimate, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if plan.MachineShape != base.Shape.Name {
		return nil, fmt.Errorf("replayer: plan was derived on shape %q, machine is %q (derive per shape, Sec 5.5)",
			plan.MachineShape, base.Shape.Name)
	}
	strata := make([]stratum, len(plan.Clusters))
	for i, pc := range plan.Clusters {
		strata[i] = stratum{cluster: pc.Cluster, weight: pc.Weight,
			candidates: []scenario.Scenario{pc.Representative}}
	}
	est, _, err := testbed{cat, inh, base, feat, opts}.estimate(ctx, strata, "")
	return est, err
}

// EstimatePerJobFromPlan estimates a feature's per-job impact from a
// plan, using the embedded fallbacks when a representative lacks the job.
func EstimatePerJobFromPlan(ctx context.Context, plan *Plan, cat *workload.Catalog, inh *perfscore.Inherent,
	base machine.Config, feat machine.Feature, job string, opts Options) (*JobEstimate, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if err := checkPerJob(cat, job); err != nil {
		return nil, err
	}
	strata := make([]stratum, len(plan.Clusters))
	for i, pc := range plan.Clusters {
		strata[i] = stratum{cluster: pc.Cluster, weight: float64(pc.JobInstances[job]),
			candidates: append([]scenario.Scenario{pc.Representative}, pc.Fallbacks...)}
	}
	est, _, err := testbed{cat, inh, base, feat, opts}.estimate(ctx, strata, job)
	if err != nil {
		return nil, err
	}
	return &JobEstimate{Estimate: *est, Job: job}, nil
}
