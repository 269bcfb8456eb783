package replayer

import (
	"math/rand"
	"testing"
)

// TestSeededSourceMatchesMathRand pins seededRand draw for draw against
// rand.NewSource over 350 seeds (negative, zero and positive), 3000
// draws each, well past the 607 recorded outputs, through NormFloat64,
// Int63 and Uint64 interleaved. Each RNG goes back to the pool, so later
// seeds reseed a used one. A Seed mid-stream must restart the copy on
// the new seed's stream too.
func TestSeededSourceMatchesMathRand(t *testing.T) {
	for seed := int64(-50); seed < 300; seed++ {
		got, want := seededRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			switch i % 3 {
			case 0:
				if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
					t.Fatalf("seed %d draw %d: NormFloat64 %v, want %v", seed, i, g, w)
				}
			case 1:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 %v, want %v", seed, i, g, w)
				}
			default:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %v, want %v", seed, i, g, w)
				}
			}
		}
		replayRands.Put(got)
	}
	got, want := seededRand(3), rand.New(rand.NewSource(3))
	for i := 0; i < 700; i++ {
		got.Int63()
	}
	got.Seed(11)
	want.Seed(11)
	for i := 0; i < 1000; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("after Seed(11), draw %d: %v, want %v", i, g, w)
		}
	}
}

// TestSeedRecordIsLazy checks that a seed's stream is recorded on its
// first use, not before, and recorded once.
func TestSeedRecordIsLazy(t *testing.T) {
	const seed = 1<<40 + 17
	t.Cleanup(func() { // forget the record, so a rerun in this process starts clean
		seedRecords.Lock()
		delete(seedRecords.m, seed)
		seedRecords.Unlock()
	})
	seedRecords.Lock()
	_, early := seedRecords.m[seed]
	seedRecords.Unlock()
	if early {
		t.Fatalf("seed %d recorded before its first use", seed)
	}
	if a, b := seedRecord(seed), seedRecord(seed); a != b {
		t.Error("a seed's stream was recorded twice")
	}
}
