package perfmodel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"flare/internal/machine"
	"flare/internal/workload"
)

func testAssignments(t *testing.T, names ...string) []Assignment {
	t.Helper()
	cat := workload.DefaultCatalog()
	out := make([]Assignment, 0, len(names))
	for i, n := range names {
		p, err := cat.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Assignment{Profile: p, Instances: i + 1})
	}
	return out
}

// TestEvaluatorMatchesEvaluate pins the core contract the profiler's fast
// path is built on: Begin + Relax once + N×ResultInto with a shared RNG
// draws the exact same noise sequence — and therefore produces the exact
// same bytes — as N independent Evaluate calls on that RNG. (With no
// activity factors the relaxation is deterministic, so re-relaxing per
// sample is pure waste; this test is the licence to skip it.)
func TestEvaluatorMatchesEvaluate(t *testing.T) {
	cfg := machine.BaselineConfig(machine.DefaultShape())
	jobs := testAssignments(t, workload.DataCaching, workload.Mcf, workload.WebSearch)

	const samples = 5
	opts := Options{NoiseStd: 0.05}

	rngA := rand.New(rand.NewSource(99))
	var want []Result
	for s := 0; s < samples; s++ {
		o := opts
		o.Rand = rngA
		res, err := Evaluate(cfg, jobs, o)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	ev, err := NewEvaluator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Begin(jobs); err != nil {
		t.Fatal(err)
	}
	if err := ev.Relax(nil); err != nil {
		t.Fatal(err)
	}
	rngB := rand.New(rand.NewSource(99))
	for s := 0; s < samples; s++ {
		var got Result
		o := opts
		o.Rand = rngB
		if err := ev.ResultInto(&got, o); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[s]) {
			t.Fatalf("sample %d: Evaluator result differs from Evaluate", s)
		}
	}
}

// TestEvaluatorActivityMatchesEvaluate checks the phase-enabled path:
// per-sample Relax(factors) + ResultInto equals Evaluate with the same
// ActivityFactors.
func TestEvaluatorActivityMatchesEvaluate(t *testing.T) {
	cfg := machine.BaselineConfig(machine.DefaultShape())
	jobs := testAssignments(t, workload.MediaStreaming, workload.Sjeng)

	ev, err := NewEvaluator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Begin(jobs); err != nil {
		t.Fatal(err)
	}
	var got Result
	for _, factors := range [][]float64{{1.2, 0.8}, {0.6, 1.4}, nil} {
		want, err := Evaluate(cfg, jobs, Options{ActivityFactors: factors})
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Relax(factors); err != nil {
			t.Fatal(err)
		}
		if err := ev.ResultInto(&got, Options{}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("factors %v: Evaluator result differs from Evaluate", factors)
		}
	}
}

// TestEvaluatorReuseAcrossColocations checks that a recycled evaluator
// (larger job set, then smaller) leaves no state behind.
func TestEvaluatorReuseAcrossColocations(t *testing.T) {
	cfg := machine.BaselineConfig(machine.DefaultShape())
	ev, err := NewEvaluator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range [][]Assignment{
		testAssignments(t, workload.DataCaching, workload.Mcf, workload.WebSearch),
		testAssignments(t, workload.Sjeng),
		testAssignments(t, workload.MediaStreaming, workload.DataCaching),
	} {
		want, err := Evaluate(cfg, jobs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Begin(jobs); err != nil {
			t.Fatal(err)
		}
		if err := ev.Relax(nil); err != nil {
			t.Fatal(err)
		}
		var got Result
		if err := ev.ResultInto(&got, Options{}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-job colocation: recycled Evaluator differs from Evaluate", len(jobs))
		}
	}
}

func TestEvaluatorErrors(t *testing.T) {
	bad := machine.BaselineConfig(machine.DefaultShape())
	bad.LLCMB = -1
	if _, err := NewEvaluator(bad); err == nil {
		t.Error("invalid config did not error")
	}

	cfg := machine.BaselineConfig(machine.DefaultShape())
	ev, err := NewEvaluator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Relax(nil); err == nil {
		t.Error("Relax before Begin did not error")
	}
	var res Result
	if err := ev.ResultInto(&res, Options{}); err == nil {
		t.Error("ResultInto before Relax did not error")
	}
	if err := ev.Begin(nil); err == nil {
		t.Error("empty job set did not error")
	}
	jobs := testAssignments(t, workload.DataCaching)
	if err := ev.Begin(jobs); err != nil {
		t.Fatal(err)
	}
	if err := ev.ResultInto(&res, Options{}); err == nil {
		t.Error("ResultInto before Relax (after Begin) did not error")
	}
	if err := ev.Relax([]float64{1, 1}); err != nil {
		// Length mismatch must error, not panic.
	} else {
		t.Error("mismatched activity factors did not error")
	}
	if err := ev.Relax([]float64{-1}); err == nil {
		t.Error("negative activity factor did not error")
	}
	if err := ev.Relax(nil); err != nil {
		t.Fatal(err)
	}
	if err := ev.ResultInto(&res, Options{NoiseStd: 0.1}); err == nil {
		t.Error("NoiseStd without Rand did not error")
	}
	if _, err := ev.MIPSInto(nil, Options{NoiseStd: 0.1}); err == nil {
		t.Error("MIPSInto: NoiseStd without Rand did not error")
	}
	fresh, err := NewEvaluator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.MIPSInto(nil, Options{}); err == nil {
		t.Error("MIPSInto before Relax did not error")
	}
}

// TestMIPSIntoMatchesResultInto pins the score's materialisation to the
// full one: over the baseline and the paper features, noise-free and
// noisy, many seeds and reused buffers, MIPSInto's dst[k] equals
// ResultInto's Jobs[k].MIPS bit for bit, and both leave their random
// source at the same next draw.
func TestMIPSIntoMatchesResultInto(t *testing.T) {
	base := machine.BaselineConfig(machine.DefaultShape())
	cfgs := []machine.Config{base}
	for _, f := range machine.PaperFeatures() {
		cfgs = append(cfgs, f.Apply(base))
	}
	colocations := [][]Assignment{
		testAssignments(t, workload.DataCaching, workload.Mcf, workload.WebSearch),
		testAssignments(t, workload.Sjeng),
		testAssignments(t, workload.MediaStreaming, workload.DataCaching, workload.GraphAnalytics, workload.Libquantum),
	}
	var res Result
	var mips []float64
	for ci, cfg := range cfgs {
		ev, err := NewEvaluator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, jobs := range colocations {
			if err := ev.Begin(jobs); err != nil {
				t.Fatal(err)
			}
			if err := ev.Relax(nil); err != nil {
				t.Fatal(err)
			}
			for _, noise := range []float64{0, 0.01, 0.05} {
				for seed := int64(0); seed < 25; seed++ {
					rngRes, rngMIPS := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					// Two draws per stream: the second starts mid-stream.
					for draw := 0; draw < 2; draw++ {
						if err := ev.ResultInto(&res, Options{NoiseStd: noise, Rand: rngRes}); err != nil {
							t.Fatal(err)
						}
						if mips, err = ev.MIPSInto(mips, Options{NoiseStd: noise, Rand: rngMIPS}); err != nil {
							t.Fatal(err)
						}
						if len(mips) != len(res.Jobs) {
							t.Fatalf("cfg %d: %d MIPS for %d jobs", ci, len(mips), len(res.Jobs))
						}
						for k := range mips {
							if math.Float64bits(mips[k]) != math.Float64bits(res.Jobs[k].MIPS) {
								t.Fatalf("cfg %d, %d jobs, noise %v, seed %d, draw %d: job %d MIPS %v, ResultInto %v",
									ci, len(jobs), noise, seed, draw, k, mips[k], res.Jobs[k].MIPS)
							}
						}
					}
					if a, b := rngRes.Int63(), rngMIPS.Int63(); a != b {
						t.Fatalf("cfg %d, noise %v, seed %d: random sources diverged", ci, noise, seed)
					}
				}
			}
		}
	}
}
