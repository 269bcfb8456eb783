package perfmodel

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"flare/internal/machine"
	"flare/internal/workload"
)

// tapeLengths are the listing counts of successive NoisyMIPS calls in
// the tape tests: single listings, paper-sized ones, and calls that end
// just before, on and just past a growth boundary (256, 512, 1024, ...),
// or cross several at once.
var tapeLengths = []int{1, 5, 17, 233, 1, 255, 256, 2, 600, 1, 3000, 64, 7}

// relaxedVec returns n distinct positive MIPS values.
func relaxedVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 900 + 37.5*float64(i%29) + float64(i)/7
	}
	return v
}

// TestNoiseTapeMatchesDraws pins tape-read NoisyMIPS against Rand-drawn
// NoisyMIPS bit for bit: 24 seeds (negative, zero and positive) at two
// noise levels, each through a fresh tape that the calls grow across
// every growth boundary from 256 to 4096 factors.
func TestNoiseTapeMatchesDraws(t *testing.T) {
	for _, std := range []float64{0.01, 0.05} {
		for seed := int64(-4); seed < 20; seed++ {
			tape := &NoiseCursor{tape: newNoiseTape(seed, std)}
			drawn := Options{NoiseStd: std, Rand: rand.New(rand.NewSource(seed))}
			taped := Options{NoiseStd: std, Tape: tape}
			var got, want []float64
			for call, n := range tapeLengths {
				relaxed := relaxedVec(n)
				var err error
				if want, err = NoisyMIPS(want, relaxed, drawn); err != nil {
					t.Fatal(err)
				}
				if got, err = NoisyMIPS(got, relaxed, taped); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("std %v seed %d call %d listing %d: tape %v, drawn %v",
							std, seed, call, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestNoiseCursorsShareOneTape reads one fresh tape through eight
// concurrent cursors, each its own sequence of call lengths, so the
// readers race to grow it; every cursor must read the factors a private
// Rand would have drawn. Run it under -race.
func TestNoiseCursorsShareOneTape(t *testing.T) {
	const seed, std = 42, 0.01
	tape := newNoiseTape(seed, std)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			drawn := Options{NoiseStd: std, Rand: rand.New(rand.NewSource(seed))}
			taped := Options{NoiseStd: std, Tape: &NoiseCursor{tape: tape}}
			var got, want []float64
			for k := range tapeLengths {
				relaxed := relaxedVec(tapeLengths[(k+g)%len(tapeLengths)])
				want, _ = NoisyMIPS(want, relaxed, drawn)
				var err error
				if got, err = NoisyMIPS(got, relaxed, taped); err != nil {
					t.Error(err)
					return
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("cursor %d call %d listing %d: tape %v, drawn %v", g, k, i, got[i], want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNoiseCursorChecks covers the cursor's edges: the process registry
// hands every caller of one (seed, std) the same tape, starting each
// cursor at the tape's start; a noise-free std gets no cursor; a cursor
// read at another std errors; and ResultInto, which synthesises counters
// the tape does not record, still needs Rand.
func TestNoiseCursorChecks(t *testing.T) {
	a, b := NewNoiseCursor(7, 0.01), NewNoiseCursor(7, 0.01)
	if a.tape != b.tape || b.pos != 0 {
		t.Error("two cursors on one (seed, std) do not share a tape from its start")
	}
	if NewNoiseCursor(7, 0.02).tape == a.tape {
		t.Error("another std shares the tape")
	}
	if NewNoiseCursor(7, 0) != nil || NewNoiseCursor(7, math.NaN()) != nil {
		t.Error("a noise-free std got a cursor")
	}
	if _, err := NoisyMIPS(nil, relaxedVec(3), Options{NoiseStd: 0.05, Tape: a}); err == nil {
		t.Error("a cursor read at another std did not error")
	}
	if a.pos != 0 {
		t.Error("a rejected read moved the cursor")
	}
	ev, err := NewEvaluator(machine.BaselineConfig(machine.DefaultShape()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Begin(testAssignments(t, workload.DataCaching, workload.Mcf)); err != nil {
		t.Fatal(err)
	}
	if err := ev.Relax(nil); err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := ev.ResultInto(&res, Options{NoiseStd: 0.01, Tape: a}); err == nil {
		t.Error("ResultInto with a tape and no Rand did not error")
	}
}
