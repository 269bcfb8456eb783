package perfmodel

import (
	"math/rand"
	"testing"

	"flare/internal/machine"
	"flare/internal/workload"
)

// BenchmarkEvaluateSolo measures the fast path: one job alone.
func BenchmarkEvaluateSolo(b *testing.B) {
	cfg := machine.BaselineConfig(machine.DefaultShape())
	p, err := workload.DefaultCatalog().Lookup(workload.WebSearch)
	if err != nil {
		b.Fatal(err)
	}
	jobs := []Assignment{{Profile: p, Instances: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(cfg, jobs, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateFullMachine measures a saturated colocation: the unit
// of work behind every scenario evaluation in the pipeline.
func BenchmarkEvaluateFullMachine(b *testing.B) {
	cfg := machine.BaselineConfig(machine.DefaultShape())
	cat := workload.DefaultCatalog()
	var jobs []Assignment
	for i, p := range cat.Profiles() {
		if i >= 6 {
			break
		}
		jobs = append(jobs, Assignment{Profile: p, Instances: 2})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(cfg, jobs, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateWithNoise measures the profiler's sampling path.
func BenchmarkEvaluateWithNoise(b *testing.B) {
	cfg := machine.BaselineConfig(machine.DefaultShape())
	cat := workload.DefaultCatalog()
	dc, err := cat.Lookup(workload.DataCaching)
	if err != nil {
		b.Fatal(err)
	}
	mcf, err := cat.Lookup(workload.Mcf)
	if err != nil {
		b.Fatal(err)
	}
	jobs := []Assignment{{Profile: dc, Instances: 4}, {Profile: mcf, Instances: 4}}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(cfg, jobs, Options{NoiseStd: 0.02, Rand: rng}); err != nil {
			b.Fatal(err)
		}
	}
}

// noisyRelaxed returns an evaluator holding the relaxed state of the
// noisy-sample benchmarks' colocation, and a seeded random source.
func noisyRelaxed(b *testing.B) (*Evaluator, *rand.Rand) {
	b.Helper()
	cat := workload.DefaultCatalog()
	var jobs []Assignment
	for _, name := range []string{workload.DataCaching, workload.WebSearch, workload.Mcf} {
		p, err := cat.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		jobs = append(jobs, Assignment{Profile: p, Instances: 3})
	}
	ev, err := NewEvaluator(machine.BaselineConfig(machine.DefaultShape()))
	if err != nil {
		b.Fatal(err)
	}
	if err := ev.Begin(jobs); err != nil {
		b.Fatal(err)
	}
	if err := ev.Relax(nil); err != nil {
		b.Fatal(err)
	}
	return ev, rand.New(rand.NewSource(1))
}

// BenchmarkResultInto measures one noisy full materialisation of a
// relaxed state: every counter of every job.
func BenchmarkResultInto(b *testing.B) {
	ev, rng := noisyRelaxed(b)
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.ResultInto(&res, Options{NoiseStd: 0.01, Rand: rng}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMIPSInto measures the score's materialisation of the same
// state: each job's noisy MIPS only, on the same random stream.
func BenchmarkMIPSInto(b *testing.B) {
	ev, rng := noisyRelaxed(b)
	var mips []float64
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mips, err = ev.MIPSInto(mips, Options{NoiseStd: 0.01, Rand: rng}); err != nil {
			b.Fatal(err)
		}
	}
}
