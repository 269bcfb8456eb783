package ibench

import (
	"math"
	"testing"

	"flare/internal/machine"
	"flare/internal/metrics"
	"flare/internal/perfmodel"
	"flare/internal/scenario"
	"flare/internal/workload"
)

func baseCfg() machine.Config {
	return machine.BaselineConfig(machine.DefaultShape())
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := Generator(CPU, 0); err == nil {
		t.Error("zero intensity did not error")
	}
	if _, err := Generator(CPU, 1.5); err == nil {
		t.Error("intensity > 1 did not error")
	}
	if _, err := Generator(Kind(99), 0.5); err == nil {
		t.Error("unknown kind did not error")
	}
}

func TestGeneratorsAllValidProfiles(t *testing.T) {
	for _, kind := range []Kind{CPU, Cache, Stream, Network, Disk} {
		for _, intensity := range []float64{0.1, 0.5, 1.0} {
			p, err := Generator(kind, intensity)
			if err != nil {
				t.Fatalf("%s@%v: %v", kind, intensity, err)
			}
			if err := p.Validate(); err != nil {
				t.Errorf("%s@%v invalid: %v", kind, intensity, err)
			}
		}
	}
}

func TestGeneratorsPressureTheirResource(t *testing.T) {
	cfg := baseCfg()
	cat := metrics.DefaultCatalog()
	// eval returns the named machine-level metric for six instances of
	// one generator.
	eval := func(kind Kind, intensity float64, metric string) float64 {
		t.Helper()
		p, err := Generator(kind, intensity)
		if err != nil {
			t.Fatal(err)
		}
		res, err := perfmodel.Evaluate(cfg, []perfmodel.Assignment{{Profile: p, Instances: 6}}, perfmodel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		v, err := metrics.ExtractInto(make([]float64, cat.Len()), cat, cfg, res).Get(metric)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	// Stream hammers DRAM harder than CPU does.
	if s, c := eval(Stream, 1.0, "MemBW-Machine"), eval(CPU, 1.0, "MemBW-Machine"); s <= 2*c {
		t.Errorf("stream BW %v not far above cpu BW %v", s, c)
	}
	// Cache misses more than CPU.
	if ca, c := eval(Cache, 1.0, "LLC-MPKI-Machine"), eval(CPU, 1.0, "LLC-MPKI-Machine"); ca <= c {
		t.Errorf("cache MPKI %v not above cpu MPKI %v", ca, c)
	}
	// Network floods the NIC.
	if n, c := eval(Network, 1.0, "NetworkBW-Machine"), eval(CPU, 1.0, "NetworkBW-Machine"); n <= c {
		t.Errorf("network generator pushes %v Mbps vs cpu %v", n, c)
	}
	// Intensity is monotone in the pressured dimension.
	if lo, hi := eval(Stream, 0.2, "MemBW-Machine"), eval(Stream, 1.0, "MemBW-Machine"); hi <= lo {
		t.Errorf("stream intensity not monotone: %v -> %v", lo, hi)
	}
}

func TestFitScenarioReproducesPressures(t *testing.T) {
	cfg := baseCfg()
	cat := workload.DefaultCatalog()
	sc, err := scenario.New([]scenario.Placement{
		{Job: workload.GraphAnalytics, Instances: 3},
		{Job: workload.DataCaching, Instances: 2},
		{Job: workload.Mcf, Instances: 2},
		{Job: workload.MediaStreaming, Instances: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	fit, err := FitScenario(cfg, sc, cat)
	if err != nil {
		t.Fatal(err)
	}

	// Same vCPU footprint.
	var instances int
	for _, a := range fit.Assignments {
		instances += a.Instances
	}
	if instances != sc.TotalInstances() {
		t.Errorf("fit uses %d instances, scenario has %d", instances, sc.TotalInstances())
	}

	// Key pressures within 35% (iBench reproduces pressure magnitudes,
	// not exact microarchitecture).
	for _, name := range []string{"MemBW-Machine", "LLC-MPKI-Machine", "NetworkBW-Machine"} {
		target, err := fit.Target.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		achieved, err := fit.Achieved.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if target < 1e-6 {
			continue
		}
		rel := math.Abs(achieved-target) / target
		if rel > 0.35 {
			t.Errorf("%s: achieved %v vs target %v (rel err %.0f%%)", name, achieved, target, rel*100)
		}
	}
}

func TestFitScenarioFeatureImpactCorrelates(t *testing.T) {
	// The point of generator replay: a feature's machine-level impact on
	// the approximation should resemble its impact on the real mix.
	cfg := baseCfg()
	cat := workload.DefaultCatalog()
	sc, err := scenario.New([]scenario.Placement{
		{Job: workload.GraphAnalytics, Instances: 4},
		{Job: workload.Mcf, Instances: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	fit, err := FitScenario(cfg, sc, cat)
	if err != nil {
		t.Fatal(err)
	}
	feat := machine.CacheSizing(12)
	featCfg := feat.Apply(cfg)

	recorded, err := assignments(sc, cat)
	if err != nil {
		t.Fatal(err)
	}
	// drop is the fractional total-MIPS loss of jobs under the feature.
	drop := func(jobs []perfmodel.Assignment) float64 {
		t.Helper()
		total := func(cfg machine.Config) float64 {
			res, err := perfmodel.Evaluate(cfg, jobs, perfmodel.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, j := range res.Jobs {
				sum += j.MIPS * float64(j.Instances)
			}
			return sum
		}
		base := total(cfg)
		return (base - total(featCfg)) / base
	}
	realDrop, approxDrop := drop(recorded), drop(fit.Assignments)

	if realDrop <= 0 || approxDrop <= 0 {
		t.Fatalf("drops: real %v, approx %v; both should be positive for a cache-hungry mix", realDrop, approxDrop)
	}
	if math.Abs(realDrop-approxDrop) > 0.10 {
		t.Errorf("feature impact: real %.1f%% vs generator replay %.1f%%; want within 10 points",
			100*realDrop, 100*approxDrop)
	}
}

func TestFitScenarioValidation(t *testing.T) {
	cfg := baseCfg()
	sc, _ := scenario.New([]scenario.Placement{{Job: workload.DataCaching, Instances: 1}})
	if _, err := FitScenario(cfg, sc, nil); err == nil {
		t.Error("nil catalog did not error")
	}
	unknown, _ := scenario.New([]scenario.Placement{{Job: "mystery", Instances: 1}})
	if _, err := FitScenario(cfg, unknown, workload.DefaultCatalog()); err == nil {
		t.Error("unknown job did not error")
	}
}

func TestApportionConservesInstances(t *testing.T) {
	for _, n := range []int{1, 5, 12} {
		counts := apportion(n, []float64{1, 0.5, 0.3, 0.1, 0})
		total := 0
		for _, c := range counts {
			if c < 0 {
				t.Fatalf("negative count in %v", counts)
			}
			total += c
		}
		if total != n {
			t.Errorf("apportion(%d) distributed %d", n, total)
		}
	}
}

func TestKindString(t *testing.T) {
	for kind, want := range map[Kind]string{
		CPU: "cpu", Cache: "cache", Stream: "stream", Network: "network", Disk: "disk",
	} {
		if kind.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(kind), kind.String(), want)
		}
	}
}
