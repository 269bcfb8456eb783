package metrics

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"flare/internal/machine"
	"flare/internal/perfmodel"
	"flare/internal/workload"
)

// extractGoldenDigest is the SHA-256 of the float64 bits ExtractInto
// writes over the seeded colocations of TestExtractGolden. It moves only
// when a metric's value moves; a refactor of the rollup must leave it be.
const extractGoldenDigest = "0fe4edad609f94a561cda1e2fc21a4cd23b6065e5becaa4fb51c01b6eebdaca9"

// TestExtractGolden pins every value of the default catalog, bit for bit,
// over seeded noisy colocations (random mixes, activity factors and
// measurement noise) on the stock machine, under each of the paper's
// three features, and on the small shape.
func TestExtractGolden(t *testing.T) {
	cat := DefaultCatalog()
	profiles := workload.DefaultCatalog().Profiles()
	base := machine.BaselineConfig(machine.DefaultShape())
	cfgs := []machine.Config{base}
	for _, f := range machine.PaperFeatures() {
		cfgs = append(cfgs, f.Apply(base))
	}
	cfgs = append(cfgs, machine.BaselineConfig(machine.SmallShape()))

	r := rand.New(rand.NewSource(20231))
	h := sha256.New()
	dst := make([]float64, cat.Len())
	var buf [8]byte
	var res perfmodel.Result
	const mixes, samples = 400, 3
	for ci, cfg := range cfgs {
		ev, err := perfmodel.NewEvaluator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Budgets run slightly past the stock vCPU count so some mixes
		// oversubscribe (and SMT-off halves the vCPUs under all of them).
		budget := cfg.Shape.HWThreads()/workload.InstanceVCPUs + 2
		for m := 0; m < mixes; m++ {
			jobs := goldenMix(r, profiles, budget)
			activity := make([]float64, len(jobs))
			for i := range activity {
				activity[i] = 0.5 + 0.8*r.Float64()
			}
			if err := ev.Begin(jobs); err != nil {
				t.Fatal(err)
			}
			if err := ev.Relax(activity); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < samples; s++ {
				if err := ev.ResultInto(&res, perfmodel.Options{NoiseStd: 0.05, Rand: r}); err != nil {
					t.Fatal(err)
				}
				for _, v := range ExtractInto(dst, cat, cfg, res).Values {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("config %d mix %d: non-finite metric value %v", ci, m, v)
					}
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != extractGoldenDigest {
		t.Errorf("extracted metric digest = %s, want %s", got, extractGoldenDigest)
	}
}

// goldenMix draws a colocation of one to five distinct catalog jobs whose
// instance counts sum to at most budget.
func goldenMix(r *rand.Rand, profiles []workload.Profile, budget int) []perfmodel.Assignment {
	perm := r.Perm(len(profiles))
	n := 1 + r.Intn(5)
	var jobs []perfmodel.Assignment
	for i := 0; i < n && budget > 0; i++ {
		inst := 1 + r.Intn(budget)
		if i < n-1 && inst > budget/2+1 {
			inst = budget/2 + 1
		}
		jobs = append(jobs, perfmodel.Assignment{Profile: profiles[perm[i]], Instances: inst})
		budget -= inst
	}
	return jobs
}
