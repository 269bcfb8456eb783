package retry

import (
	"errors"
	"sync"
	"time"

	"flare/internal/obs"
)

// ErrOpen is returned by Breaker.Allow while the circuit is open.
var ErrOpen = errors.New("retry: circuit open")

// State is a breaker's position.
type State int

// Breaker states. Closed passes traffic; Open rejects it; HalfOpen lets
// one probe through after the cooldown to test recovery.
const (
	Closed State = iota
	HalfOpen
	Open
)

// String names the state.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half-open"
	case Open:
		return "open"
	default:
		return "unknown"
	}
}

// Breaker is a small consecutive-failure circuit breaker. Threshold
// consecutive failures open the circuit; after Cooldown one probe is
// admitted (half-open); the probe's success closes the circuit, its
// failure re-opens it. Safe for concurrent use.
type Breaker struct {
	name      string
	threshold int
	cooldown  time.Duration
	now       func() time.Time
	state     *obs.Gauge
	trips     *obs.Counter

	mu       sync.Mutex
	st       State
	fails    int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// BreakerOptions tunes a breaker; zero fields take the documented
// defaults.
type BreakerOptions struct {
	// Threshold is the consecutive-failure count that opens the circuit.
	// Default 5.
	Threshold int
	// Cooldown is how long the circuit stays open before admitting a
	// probe. Default 5s.
	Cooldown time.Duration
	// Now is the clock (tests). Default time.Now.
	Now func() time.Time
	// Registry receives flare_breaker_* metrics; nil records nothing.
	Registry *obs.Registry
}

// NewBreaker builds a closed breaker named name (the metric label).
func NewBreaker(name string, opts BreakerOptions) *Breaker {
	if opts.Threshold <= 0 {
		opts.Threshold = 5
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = 5 * time.Second
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	b := &Breaker{
		name:      name,
		threshold: opts.Threshold,
		cooldown:  opts.Cooldown,
		now:       opts.Now,
		state:     obs.BreakerState.In(opts.Registry, name),
		trips:     obs.BreakerTrips.In(opts.Registry, name),
	}
	b.state.Set(float64(Closed))
	return b
}

// Allow reports whether a call may proceed. It returns ErrOpen while the
// circuit is open; after the cooldown it admits exactly one probe at a
// time (half-open). Callers that proceed must Record the outcome.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.st {
	case Closed:
		return nil
	case Open:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return ErrOpen
		}
		b.setState(HalfOpen)
		b.probing = true
		return nil
	default: // HalfOpen
		if b.probing {
			return ErrOpen
		}
		b.probing = true
		return nil
	}
}

// Record reports a call's outcome. Success closes a half-open circuit and
// clears the failure run; failure counts toward the threshold and
// re-opens a half-open circuit immediately.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.st == HalfOpen {
		b.probing = false
	}
	if err == nil {
		b.fails = 0
		if b.st != Closed {
			b.setState(Closed)
		}
		return
	}
	b.fails++
	if b.st == HalfOpen || (b.st == Closed && b.fails >= b.threshold) {
		b.openedAt = b.now()
		b.setState(Open)
		b.trips.Inc()
	}
}

// setState transitions and publishes the gauge (caller holds mu).
func (b *Breaker) setState(s State) {
	b.st = s
	b.state.Set(float64(s))
}

// State returns the current state, applying the open->half-open cooldown
// transition lazily.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.st
}
