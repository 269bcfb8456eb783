package perfmodel

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
)

// A noiseTape records the common noise factors NoisyMIPS draws from one
// seeded stream: factor j is math.Exp(N·std), where N is the common
// normal of listing j in rand.New(rand.NewSource(seed))'s stream, each
// followed by the perCounterDraws normals NoisyMIPS draws and discards.
// Every read from the stream's start sees the same factors, so callers
// that restart one seed per measurement series (the replayer restarts
// its seed per estimate) share one tape instead of drawing afresh.
//
// A tape grows lazily, under a mutex, and publishes an immutable prefix
// through an atomic pointer: a reader whose prefix is already recorded
// never blocks. A tape is safe for concurrent use.
type noiseTape struct {
	std     float64
	factors atomic.Pointer[[]float64] // the recorded prefix; never written again

	mu  sync.Mutex
	rng *rand.Rand // the stream, past the last recorded factor
}

// minTapeLen is the shortest prefix a tape records: a paper-scale
// estimate reads a few hundred factors.
const minTapeLen = 256

// tapes is the process's tape per (seed, std). A tape is a pure function
// of its key, so sharing one across the process changes no reader's
// factors.
var tapes = struct {
	sync.Mutex
	m map[tapeKey]*noiseTape
}{m: make(map[tapeKey]*noiseTape)}

type tapeKey struct {
	seed int64
	std  float64
}

// NewNoiseCursor returns a cursor at the start of the process's noise
// tape for (seed, std): read through Options.Tape, it gives NoisyMIPS
// the factors a Rand seeded with seed would, bit for bit. The tape
// records nothing until it is read and is kept for the process's life;
// one is recorded per (seed, std) ever asked for. It returns nil when
// std is not positive: noise-free materialisations read no factors.
func NewNoiseCursor(seed int64, std float64) *NoiseCursor {
	if !(std > 0) {
		return nil
	}
	k := tapeKey{seed, std}
	tapes.Lock()
	t := tapes.m[k]
	if t == nil {
		t = newNoiseTape(seed, std)
		tapes.m[k] = t
	}
	tapes.Unlock()
	return &NoiseCursor{tape: t}
}

// newNoiseTape returns an empty tape for (seed, std).
func newNoiseTape(seed int64, std float64) *noiseTape {
	return &noiseTape{std: std, rng: rand.New(rand.NewSource(seed))}
}

// prefix returns at least the first n factors.
func (t *noiseTape) prefix(n int) []float64 {
	if f := t.factors.Load(); f != nil && len(*f) >= n {
		return *f
	}
	return t.grow(n)
}

// grow records the tape to at least n factors, at least doubling it, and
// publishes the longer prefix in a new array, so a published prefix is
// never written.
func (t *noiseTape) grow(n int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var cur []float64
	if f := t.factors.Load(); f != nil {
		cur = *f
	}
	if len(cur) >= n {
		return cur // another reader grew it first
	}
	next := make([]float64, len(cur), max(n, 2*len(cur), minTapeLen))
	copy(next, cur)
	for len(next) < cap(next) {
		next = append(next, math.Exp(t.rng.NormFloat64()*t.std))
		for k := 0; k < perCounterDraws; k++ {
			t.rng.NormFloat64()
		}
	}
	t.factors.Store(&next)
	return next
}

// NoiseCursor reads a noise tape from its start: each NoisyMIPS call
// takes the next factor per listing, as it would take the next normals
// from the tape's stream. A cursor is not safe for concurrent use; give
// each measurement series its own.
type NoiseCursor struct {
	tape *noiseTape
	pos  int
}

// next returns the next n factors and moves past them.
func (c *NoiseCursor) next(n int) []float64 {
	f := c.tape.prefix(c.pos + n)[c.pos : c.pos+n]
	c.pos += n
	return f
}

// check rejects a cursor read at another std than its tape records.
func (c *NoiseCursor) check(std float64) error {
	if c.tape.std != std {
		return errors.New("perfmodel: Options.Tape records another NoiseStd")
	}
	return nil
}
