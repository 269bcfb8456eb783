package replayer

import (
	"math/rand"
	"sync"
)

// math/rand's source is an additive lagged Fibonacci generator: after
// seeding, its k'th output is x_k = x_{k-rngLen} + x_{k-rngTap} mod 2^64.
// Its first rngLen outputs are therefore all of its state that depends
// on the seed.
const (
	rngLen = 607
	rngTap = 273
)

// seedRecords holds, per seed, the first rngLen Uint64 outputs of
// rand.NewSource(seed), recorded the first time an estimate asks for the
// seed. Seeding costs a 607-step loop; copying a record does not. A
// record is a pure function of its seed, so sharing the memo across the
// process changes no caller's draws.
var seedRecords = struct {
	sync.Mutex
	m map[int64]*[rngLen]uint64
}{m: make(map[int64]*[rngLen]uint64)}

// seedRecord returns the recorded first outputs of rand.NewSource(seed).
func seedRecord(seed int64) *[rngLen]uint64 {
	seedRecords.Lock()
	rec := seedRecords.m[seed]
	seedRecords.Unlock()
	if rec != nil {
		return rec
	}
	src := rand.NewSource(seed).(rand.Source64)
	rec = new([rngLen]uint64)
	for i := range rec {
		rec[i] = src.Uint64()
	}
	seedRecords.Lock()
	defer seedRecords.Unlock()
	if old := seedRecords.m[seed]; old != nil {
		return old
	}
	seedRecords.m[seed] = rec
	return rec
}

// replaySource is a rand.Source64 that yields exactly what
// rand.NewSource(seed) yields, without seeding: it replays the seed's
// recorded first rngLen outputs, then continues with the generator's own
// recurrence over the last rngLen outputs, kept in vec as a ring.
type replaySource struct {
	vec     [rngLen]uint64
	i       int  // the next output's position in vec
	wrapped bool // every output from here on is computed
}

// replayRands recycles replay RNGs across estimates: a replaySource is
// 4.9 KB, about a fifth of the bytes a cold estimate allocates.
var replayRands = sync.Pool{New: func() any { return rand.New(new(replaySource)) }}

// seededRand returns an RNG drawing what rand.New(rand.NewSource(seed))
// draws. Return it to replayRands once nothing draws from it.
func seededRand(seed int64) *rand.Rand {
	r := replayRands.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// Seed restarts the source on seed's stream.
func (s *replaySource) Seed(seed int64) {
	s.vec, s.i, s.wrapped = *seedRecord(seed), 0, false
}

// Uint64 returns the next output.
func (s *replaySource) Uint64() uint64 {
	x := s.vec[s.i]
	if s.wrapped {
		// vec[i] holds x_{k-rngLen}; x_{k-rngTap} was written rngLen-rngTap
		// outputs after it.
		j := s.i - rngTap
		if j < 0 {
			j += rngLen
		}
		x += s.vec[j]
		s.vec[s.i] = x
	}
	if s.i++; s.i == rngLen {
		s.i, s.wrapped = 0, true
	}
	return x
}

// Int63 returns the next output masked to 63 bits, as math/rand's own
// source does.
func (s *replaySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
