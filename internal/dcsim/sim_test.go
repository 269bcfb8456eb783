package dcsim

import (
	"strings"
	"testing"
	"time"

	"flare/internal/clustertrace"
	"flare/internal/machine"
	"flare/internal/obs"
	"flare/internal/workload"
)

func shortConfig() Config {
	cfg := DefaultConfig()
	cfg.Duration = 7 * 24 * time.Hour
	cfg.ResizesPerJobPerDay = 6
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no-machines", func(c *Config) { c.Machines = 0 }},
		{"nil-catalog", func(c *Config) { c.Catalog = nil }},
		{"no-resizes", func(c *Config) { c.ResizesPerJobPerDay = 0 }},
		{"no-duration", func(c *Config) { c.Duration = 0 }},
		{"bad-hp-target", func(c *Config) { c.TargetHPInstances = 0 }},
		{"bad-lp-target", func(c *Config) { c.TargetLPInstances = -1 }},
		{"bad-step", func(c *Config) { c.MaxResizeStep = 0 }},
		{"bad-shape", func(c *Config) { c.Shape.Sockets = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate accepted an invalid config")
			}
		})
	}
}

func TestRunProducesScenarios(t *testing.T) {
	trace, err := Run(shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	if trace.Scenarios.Len() < 100 {
		t.Errorf("week-long trace produced only %d scenarios", trace.Scenarios.Len())
	}
	if trace.Stats.Scheduled == 0 {
		t.Error("no instances scheduled")
	}
	if trace.Stats.SimulatedSpan != 7*24*time.Hour {
		t.Errorf("SimulatedSpan = %v, want 7d", trace.Stats.SimulatedSpan)
	}
}

func TestRunDeterministicAcrossSeeds(t *testing.T) {
	a, err := Run(shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Scenarios.Len() != b.Scenarios.Len() {
		t.Fatalf("same seed gave %d vs %d scenarios", a.Scenarios.Len(), b.Scenarios.Len())
	}
	for i := 0; i < a.Scenarios.Len(); i++ {
		sa, _ := a.Scenarios.Get(i)
		sb, _ := b.Scenarios.Get(i)
		if sa.Key() != sb.Key() || sa.Observed != sb.Observed {
			t.Fatalf("scenario %d differs across identical runs", i)
		}
	}

	cfg := shortConfig()
	cfg.Seed = 99
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Scenarios.Len() == a.Scenarios.Len() {
		// Lengths could coincide, but every scenario matching would mean
		// the seed is ignored.
		same := true
		for i := 0; i < c.Scenarios.Len() && same; i++ {
			sa, _ := a.Scenarios.Get(i)
			sc, _ := c.Scenarios.Get(i)
			same = sa.Key() == sc.Key()
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestScenariosNeverOvercommit(t *testing.T) {
	trace, err := Run(shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	capVCPUs := machine.BaselineConfig(machine.DefaultShape()).VCPUs()
	for _, sc := range trace.Scenarios.All() {
		if sc.VCPUs() > capVCPUs {
			t.Errorf("scenario %s occupies %d vCPUs, machine has %d", sc.Key(), sc.VCPUs(), capVCPUs)
		}
	}
}

func TestScenariosOnlyContainCatalogJobs(t *testing.T) {
	cfg := shortConfig()
	trace, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range trace.Scenarios.All() {
		for _, p := range sc.Placements {
			if _, err := cfg.Catalog.Lookup(p.Job); err != nil {
				t.Errorf("scenario contains unknown job %q", p.Job)
			}
		}
	}
}

func TestScenarioDiversity(t *testing.T) {
	// The population must include both HP-only, LP-containing, and mixed
	// scenarios across a range of occupancies (Fig 3a's diversity).
	trace, err := Run(shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	cat := workload.DefaultCatalog()
	var hpOnly, withLP, nearFull, light int
	capVCPUs := machine.BaselineConfig(machine.DefaultShape()).VCPUs()
	for _, sc := range trace.Scenarios.All() {
		hp, lp := sc.CountByClass(cat)
		if lp == 0 && hp > 0 {
			hpOnly++
		}
		if lp > 0 {
			withLP++
		}
		occ := sc.Occupancy(capVCPUs)
		if occ >= 0.9 {
			nearFull++
		}
		if occ <= 0.25 {
			light++
		}
	}
	if hpOnly == 0 || withLP == 0 {
		t.Errorf("population lacks class diversity: hpOnly=%d withLP=%d", hpOnly, withLP)
	}
	if nearFull == 0 || light == 0 {
		t.Errorf("population lacks occupancy diversity: nearFull=%d light=%d", nearFull, light)
	}
}

func TestPaperScalePopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping month-long trace in -short mode")
	}
	// The default (month-long) config should land in the same regime as
	// the paper's 895-scenario population.
	trace, err := Run(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := trace.Scenarios.Len()
	if n < 500 || n > 1500 {
		t.Errorf("default trace produced %d scenarios, want 500..1500 (paper: 895)", n)
	}
}

func TestRejectionsOnlyWhenSaturated(t *testing.T) {
	// With small deployment targets nothing should ever be rejected.
	cfg := shortConfig()
	cfg.TargetHPInstances = 2
	cfg.TargetLPInstances = 1
	trace, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Stats.Rejected > trace.Stats.Scheduled/10 {
		t.Errorf("low-load trace rejected %d of %d", trace.Stats.Rejected, trace.Stats.Scheduled)
	}
}

func TestSchedulerPolicies(t *testing.T) {
	base := shortConfig()
	results := map[Policy]*Trace{}
	for _, pol := range []Policy{PolicyLeastUtilised, PolicyFirstFit, PolicyRandom} {
		cfg := base
		cfg.Scheduler = pol
		trace, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if trace.Scenarios.Len() == 0 {
			t.Fatalf("%s produced no scenarios", pol)
		}
		results[pol] = trace
	}
	// First-fit concentrates load, so its hottest machine must see at
	// least as many distinct scenarios as under least-utilised.
	maxScen := func(tr *Trace) int {
		out := 0
		for _, ids := range tr.PerMachine {
			if len(ids) > out {
				out = len(ids)
			}
		}
		return out
	}
	if maxScen(results[PolicyFirstFit]) < maxScen(results[PolicyLeastUtilised]) {
		t.Errorf("first-fit hottest machine saw %d scenarios, least-utilised %d; packing should concentrate churn",
			maxScen(results[PolicyFirstFit]), maxScen(results[PolicyLeastUtilised]))
	}
	// Different policies must induce different populations.
	if results[PolicyFirstFit].Scenarios.Len() == results[PolicyLeastUtilised].Scenarios.Len() {
		a, _ := results[PolicyFirstFit].Scenarios.Get(0)
		b, _ := results[PolicyLeastUtilised].Scenarios.Get(0)
		if a.Key() == b.Key() && results[PolicyFirstFit].Stats.Scheduled == results[PolicyLeastUtilised].Stats.Scheduled {
			t.Error("policies produced identical traces")
		}
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyLeastUtilised.String() != "least-utilised" ||
		PolicyFirstFit.String() != "first-fit" ||
		PolicyRandom.String() != "random" {
		t.Error("Policy.String wrong")
	}
}

func TestPerMachineAttributionConsistent(t *testing.T) {
	trace, err := Run(shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.PerMachine) != shortConfig().Machines {
		t.Fatalf("PerMachine has %d entries, want %d", len(trace.PerMachine), shortConfig().Machines)
	}
	seen := map[int]bool{}
	for m, ids := range trace.PerMachine {
		dup := map[int]bool{}
		for _, id := range ids {
			if id < 0 || id >= trace.Scenarios.Len() {
				t.Fatalf("machine %d references scenario %d outside population", m, id)
			}
			if dup[id] {
				t.Errorf("machine %d lists scenario %d twice", m, id)
			}
			dup[id] = true
			seen[id] = true
		}
	}
	// Every scenario was observed on at least one machine.
	if len(seen) != trace.Scenarios.Len() {
		t.Errorf("per-machine attribution covers %d of %d scenarios", len(seen), trace.Scenarios.Len())
	}
}

func TestRecordedEventsReplayToSamePopulation(t *testing.T) {
	// Cross-validation of dcsim and clustertrace: replaying the recorded
	// event log must reconstruct exactly the simulated population.
	cfg := shortConfig()
	cfg.RecordEvents = true
	trace, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Events) == 0 {
		t.Fatal("RecordEvents produced no events")
	}
	set, perMachine, err := clustertrace.Replay(trace.Events, cfg.Machines)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != trace.Scenarios.Len() {
		t.Fatalf("replayed %d scenarios, simulation observed %d", set.Len(), trace.Scenarios.Len())
	}
	for i := 0; i < set.Len(); i++ {
		a, _ := set.Get(i)
		b, _ := trace.Scenarios.Get(i)
		if a.Key() != b.Key() {
			t.Fatalf("scenario %d differs: %s vs %s", i, a.Key(), b.Key())
		}
	}
	for m := range perMachine {
		if len(perMachine[m]) != len(trace.PerMachine[m]) {
			t.Errorf("machine %d attribution differs: %d vs %d",
				m, len(perMachine[m]), len(trace.PerMachine[m]))
		}
	}
}

func TestEventsOffByDefault(t *testing.T) {
	trace, err := Run(shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	if trace.Events != nil {
		t.Error("events recorded without RecordEvents")
	}
}

func TestStatsRecordExposesMetricFamilies(t *testing.T) {
	// Regression for the metricname rewrite of Stats.Record: every family
	// must be registered under its literal flare_dcsim_* name so the
	// exposition surface stays machine-checkable.
	cfg := shortConfig()
	trace, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	trace.Stats.Record(reg, cfg.Scheduler, trace.Scenarios.Len())
	want := map[string]bool{
		"flare_dcsim_resizes_total":          false,
		"flare_dcsim_placements_total":       false,
		"flare_dcsim_evictions_total":        false,
		"flare_dcsim_rejections_total":       false,
		"flare_dcsim_transitions_total":      false,
		"flare_dcsim_machine_failures_total": false,
		"flare_dcsim_failed_instances_total": false,
		"flare_dcsim_reschedules_total":      false,
		"flare_dcsim_scenarios":              false,
	}
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	set, err := obs.ParseMetrics(strings.NewReader(prom.String()))
	if err != nil {
		t.Fatal(err)
	}
	for name := range set {
		if _, ok := want[name]; ok {
			want[name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("metric family %s not registered by Record", name)
		}
	}
}
