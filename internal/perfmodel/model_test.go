package perfmodel

import (
	"math"
	"math/rand"
	"testing"

	"flare/internal/machine"
	"flare/internal/workload"
)

func baselineCfg() machine.Config {
	return machine.BaselineConfig(machine.DefaultShape())
}

// totalMIPS sums per-instance MIPS over every instance in res.
func totalMIPS(res Result) float64 {
	var total float64
	for _, j := range res.Jobs {
		total += j.MIPS * float64(j.Instances)
	}
	return total
}

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, err := workload.DefaultCatalog().Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEvaluateInputValidation(t *testing.T) {
	cfg := baselineCfg()
	p := mustProfile(t, workload.DataCaching)

	if _, err := Evaluate(cfg, nil, Options{}); err == nil {
		t.Error("empty job list did not error")
	}
	if _, err := Evaluate(cfg, []Assignment{{Profile: p, Instances: 0}}, Options{}); err == nil {
		t.Error("zero instances did not error")
	}
	bad := p
	bad.BaseIPC = -1
	if _, err := Evaluate(cfg, []Assignment{{Profile: bad, Instances: 1}}, Options{}); err == nil {
		t.Error("invalid profile did not error")
	}
	if _, err := Evaluate(cfg, []Assignment{{Profile: p, Instances: 1}}, Options{NoiseStd: 0.1}); err == nil {
		t.Error("noise without Rand did not error")
	}
	badCfg := cfg
	badCfg.LLCMB = -5
	if _, err := Evaluate(badCfg, []Assignment{{Profile: p, Instances: 1}}, Options{}); err == nil {
		t.Error("invalid config did not error")
	}
}

func TestSoloIPCMatchesCatalog(t *testing.T) {
	// Calibration contract: each job alone on the stock machine runs at
	// its catalog BaseIPC (the memory system is unloaded, so bandwidth
	// inflation is negligible but not exactly zero; allow 5%).
	cfg := baselineCfg()
	for _, p := range workload.DefaultCatalog().Profiles() {
		res, err := Evaluate(cfg, []Assignment{{Profile: p, Instances: 1}}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		got := res.Jobs[0].IPC
		if rel := math.Abs(got-p.BaseIPC) / p.BaseIPC; rel > 0.05 {
			t.Errorf("%s solo IPC = %.3f, want ~%.3f (rel err %.1f%%)", p.Name, got, p.BaseIPC, rel*100)
		}
	}
}

func TestSoloMIPSPositiveAndScalesWithIPC(t *testing.T) {
	cfg := baselineCfg()
	mips := make(map[string]float64)
	for _, p := range workload.DefaultCatalog().Profiles() {
		m, err := SoloMIPS(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if m <= 0 {
			t.Errorf("%s solo MIPS = %v, want > 0", p.Name, m)
		}
		mips[p.Name] = m
	}
	// perlbench (IPC 1.5) must out-run mcf (IPC 0.35).
	if mips[workload.Perlbench] <= mips[workload.Mcf] {
		t.Errorf("perlbench MIPS %v <= mcf MIPS %v", mips[workload.Perlbench], mips[workload.Mcf])
	}
}

func TestCacheFeatureHurtsCacheSensitiveJobs(t *testing.T) {
	base := baselineCfg()
	small := machine.CacheSizing(12).Apply(base)

	// GA has a 40MB working set: shrinking the LLC from 60 to 24MB must
	// cost it throughput.
	ga := mustProfile(t, workload.GraphAnalytics)
	baseMIPS, err := SoloMIPS(base, ga)
	if err != nil {
		t.Fatal(err)
	}
	featMIPS, err := SoloMIPS(small, ga)
	if err != nil {
		t.Fatal(err)
	}
	if featMIPS >= baseMIPS {
		t.Errorf("GA: cache shrink did not reduce MIPS (%v -> %v)", baseMIPS, featMIPS)
	}

	// sjeng's 2MB working set fits anywhere: impact should be tiny.
	sj := mustProfile(t, workload.Sjeng)
	baseSj, _ := SoloMIPS(base, sj)
	featSj, _ := SoloMIPS(small, sj)
	sjLoss := (baseSj - featSj) / baseSj
	gaLoss := (baseMIPS - featMIPS) / baseMIPS
	if sjLoss > gaLoss {
		t.Errorf("cache-insensitive sjeng lost more (%v) than cache-hungry GA (%v)", sjLoss, gaLoss)
	}
}

func TestDVFSFeatureHurtsComputeBoundJobsMore(t *testing.T) {
	base := baselineCfg()
	slow := machine.DVFSCap(1.8).Apply(base)

	losses := map[string]float64{}
	for _, name := range []string{workload.Sjeng, workload.Mcf} {
		p := mustProfile(t, name)
		b, err := SoloMIPS(base, p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := SoloMIPS(slow, p)
		if err != nil {
			t.Fatal(err)
		}
		if f >= b {
			t.Errorf("%s: DVFS cap did not reduce MIPS (%v -> %v)", name, b, f)
		}
		losses[name] = (b - f) / b
	}
	// sjeng (FreqSensitivity 0.94) must lose a larger fraction than mcf
	// (0.18), approaching the full 1 - 1.8/2.9 = 38% clock loss.
	if losses[workload.Sjeng] <= losses[workload.Mcf] {
		t.Errorf("compute-bound sjeng lost %v, memory-bound mcf lost %v; want sjeng > mcf",
			losses[workload.Sjeng], losses[workload.Mcf])
	}
	if losses[workload.Sjeng] < 0.30 {
		t.Errorf("sjeng DVFS loss = %v, want >= 0.30 (clock drops 38%%)", losses[workload.Sjeng])
	}
	if losses[workload.Mcf] > 0.20 {
		t.Errorf("mcf DVFS loss = %v, want <= 0.20 (memory-bound)", losses[workload.Mcf])
	}
}

func TestSMTOffOnUnderloadedMachineIsBenign(t *testing.T) {
	// One instance (4 vCPUs) on a 24-core machine: disabling SMT must not
	// hurt (no sharing either way), and may help slightly.
	base := baselineCfg()
	noSMT := machine.SMTOff().Apply(base)
	p := mustProfile(t, workload.WebSearch)
	b, _ := SoloMIPS(base, p)
	f, _ := SoloMIPS(noSMT, p)
	if f < b*0.999 {
		t.Errorf("SMT off hurt an underloaded machine: %v -> %v", b, f)
	}
}

func TestSMTOffOnSaturatedMachineCutsThroughput(t *testing.T) {
	// 12 instances = 48 vCPUs fill the default machine exactly. With SMT
	// off only 24 vCPUs remain, so per-instance CPU share halves, but
	// each surviving thread runs faster on a dedicated core. Net total
	// throughput must drop, though by well under half.
	base := baselineCfg()
	noSMT := machine.SMTOff().Apply(base)
	p := mustProfile(t, workload.InMemoryAnalytics)
	jobs := []Assignment{{Profile: p, Instances: 12}}

	rb, err := Evaluate(base, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Evaluate(noSMT, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb, tf := totalMIPS(rb), totalMIPS(rf)
	if tf >= tb {
		t.Errorf("SMT off on saturated machine did not cut throughput: %v -> %v", tb, tf)
	}
	if tf < tb*0.5 {
		t.Errorf("SMT off halved throughput (%v -> %v); dedicated cores should recover part", tb, tf)
	}
}

func TestColocationInterferenceReducesPerJobMIPS(t *testing.T) {
	// A cache-hungry neighbour must slow a cache-sensitive job below its
	// solo throughput.
	cfg := baselineCfg()
	ws := mustProfile(t, workload.WebSearch)
	mcf := mustProfile(t, workload.Mcf)

	solo, err := SoloMIPS(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(cfg, []Assignment{
		{Profile: ws, Instances: 1},
		{Profile: mcf, Instances: 8},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	colocated := res.Jobs[0].MIPS
	if colocated >= solo {
		t.Errorf("WSC with 8 mcf neighbours = %v MIPS, want < solo %v", colocated, solo)
	}
	if colocated < solo*0.3 {
		t.Errorf("interference implausibly destroyed WSC: %v -> %v", solo, colocated)
	}
}

func TestLLCAllocationSumsToConfiguredCapacity(t *testing.T) {
	cfg := baselineCfg()
	res, err := Evaluate(cfg, []Assignment{
		{Profile: mustProfile(t, workload.GraphAnalytics), Instances: 3},
		{Profile: mustProfile(t, workload.DataCaching), Instances: 2},
		{Profile: mustProfile(t, workload.Mcf), Instances: 1},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, j := range res.Jobs {
		total += j.LLCAllocMB * float64(j.Instances)
	}
	if math.Abs(total-cfg.LLCMB) > 1e-6 {
		t.Errorf("allocated LLC = %v, want %v", total, cfg.LLCMB)
	}
}

func TestTopdownFractionsSumToOne(t *testing.T) {
	cfg := baselineCfg()
	res, err := Evaluate(cfg, []Assignment{
		{Profile: mustProfile(t, workload.Mcf), Instances: 6},
		{Profile: mustProfile(t, workload.WebServing), Instances: 2},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		sum := j.FrontendBound + j.BadSpeculation + j.BackendBound + j.Retiring
		if math.Abs(sum-1) > 0.02 {
			t.Errorf("%s top-down sums to %v, want ~1", j.Job, sum)
		}
	}
}

func TestMemoryPressureGrowsBackendBound(t *testing.T) {
	cfg := baselineCfg()
	p := mustProfile(t, workload.InMemoryAnalytics)

	solo, err := Evaluate(cfg, []Assignment{{Profile: p, Instances: 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	crowded, err := Evaluate(cfg, []Assignment{
		{Profile: p, Instances: 1},
		{Profile: mustProfile(t, workload.Libquantum), Instances: 9},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if crowded.Jobs[0].BackendBound <= solo.Jobs[0].BackendBound {
		t.Errorf("backend-bound did not grow under memory pressure: %v -> %v",
			solo.Jobs[0].BackendBound, crowded.Jobs[0].BackendBound)
	}
}

func TestNetworkSaturationThrottlesStreamingJobs(t *testing.T) {
	cfg := baselineCfg()
	ms := mustProfile(t, workload.MediaStreaming)

	solo, err := SoloMIPS(cfg, ms)
	if err != nil {
		t.Fatal(err)
	}
	// 6 instances demand 14.4 Gbps on a 10 Gbps NIC.
	res, err := Evaluate(cfg, []Assignment{{Profile: ms, Instances: 6}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].MIPS >= solo*0.95 {
		t.Errorf("NIC saturation did not throttle MS: solo %v, 6x %v", solo, res.Jobs[0].MIPS)
	}
	if util := res.Jobs[0].NetworkMbps * 6 / (cfg.Shape.NetworkGbps * 1000); util < 0.95 {
		t.Errorf("network utilisation = %v, want ~1 when oversubscribed", util)
	}
}

func TestNoiseIsZeroMeanAndBounded(t *testing.T) {
	cfg := baselineCfg()
	p := mustProfile(t, workload.DataServing)
	jobs := []Assignment{{Profile: p, Instances: 2}}

	det, err := Evaluate(cfg, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	var sum float64
	const trials = 300
	for i := 0; i < trials; i++ {
		res, err := Evaluate(cfg, jobs, Options{NoiseStd: 0.03, Rand: r})
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Jobs[0].MIPS
	}
	avg := sum / trials
	if rel := math.Abs(avg-det.Jobs[0].MIPS) / det.Jobs[0].MIPS; rel > 0.02 {
		t.Errorf("noisy mean deviates %v from deterministic value", rel)
	}
}

func TestEvaluateDeterministicWithoutNoise(t *testing.T) {
	cfg := baselineCfg()
	jobs := []Assignment{
		{Profile: mustProfile(t, workload.DataAnalytics), Instances: 2},
		{Profile: mustProfile(t, workload.Omnetpp), Instances: 3},
	}
	a, err := Evaluate(cfg, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(cfg, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("non-deterministic result for job %s", a.Jobs[i].Job)
		}
	}
}

func TestOversubscriptionSharesCPUFairly(t *testing.T) {
	// 15 instances want 60 vCPUs on a 48-vCPU machine: every job's share
	// should be 0.8.
	cfg := baselineCfg()
	res, err := Evaluate(cfg, []Assignment{
		{Profile: mustProfile(t, workload.DataAnalytics), Instances: 15},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].CPUShare; math.Abs(got-0.8) > 1e-9 {
		t.Errorf("CPUShare = %v, want 0.8", got)
	}
}

func TestActivityFactorsValidation(t *testing.T) {
	cfg := baselineCfg()
	p := mustProfile(t, workload.DataCaching)
	jobs := []Assignment{{Profile: p, Instances: 1}}
	if _, err := Evaluate(cfg, jobs, Options{ActivityFactors: []float64{1, 1}}); err == nil {
		t.Error("wrong-length activity factors did not error")
	}
	if _, err := Evaluate(cfg, jobs, Options{ActivityFactors: []float64{0}}); err == nil {
		t.Error("zero activity factor did not error")
	}
}

func TestActivityScalesThroughputAndPressure(t *testing.T) {
	cfg := baselineCfg()
	ws := mustProfile(t, workload.WebSearch)
	mcf := mustProfile(t, workload.Mcf)
	jobs := []Assignment{{Profile: ws, Instances: 1}, {Profile: mcf, Instances: 8}}

	nominal, err := Evaluate(cfg, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Quiet neighbours: mcf at 60% load.
	quiet, err := Evaluate(cfg, jobs, Options{ActivityFactors: []float64{1, 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Jobs[1].MIPS >= nominal.Jobs[1].MIPS {
		t.Errorf("mcf at 0.6 load did not slow down: %v -> %v", nominal.Jobs[1].MIPS, quiet.Jobs[1].MIPS)
	}
	// With quieter neighbours, WSC suffers less interference.
	if quiet.Jobs[0].MIPS <= nominal.Jobs[0].MIPS {
		t.Errorf("WSC did not benefit from quiet neighbours: %v -> %v",
			nominal.Jobs[0].MIPS, quiet.Jobs[0].MIPS)
	}
}
