// Package retry gives FLARE's I/O edges a uniform resilience vocabulary:
// context-aware retries with capped exponential backoff and deterministic
// jitter, permanent-error classification, and a small circuit breaker.
// Each retried edge has exactly one policy, bound once by its caller:
// the metric journal (metricdb -> store), a follower's reconnect loop,
// and an estimate's representative replays. The server's degraded mode
// is driven by the breaker.
//
// Jitter is drawn from a rand.Rand seeded from Policy.Seed at a call's
// first retry, so a retried operation backs off through the same delay
// sequence on every run — fault-injected executions stay reproducible
// end to end — while a call that succeeds first time (nearly every
// journaled row and replayed representative) does no jitter work.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"flare/internal/obs"
)

// Policy configures a Bound. The zero value is usable: unset fields
// assume the defaults documented on each field.
type Policy struct {
	// MaxAttempts bounds total tries (first call included). Default 4.
	MaxAttempts int
	// BaseDelay is the wait before the first retry. Default 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the grown delay. Default 1s.
	MaxDelay time.Duration
	// Multiplier grows the delay between attempts. Default 2.
	Multiplier float64
	// JitterFrac perturbs each delay by ±frac (0..1) drawn from the
	// seeded stream. Default 0.2. Negative disables jitter.
	JitterFrac float64
	// Seed drives the jitter stream; equal seeds give equal backoff
	// sequences.
	Seed int64
	// Name labels the flare_retry_* metrics. Default "op".
	Name string
	// Registry receives the metrics; nil records nothing.
	Registry *obs.Registry
	// Sleep replaces the delay wait (tests). Nil sleeps on a timer,
	// honouring ctx cancellation.
	Sleep func(time.Duration)
}

// withDefaults fills unset fields.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.JitterFrac == 0 {
		p.JitterFrac = 0.2
	}
	if p.Name == "" {
		p.Name = "op"
	}
	return p
}

// permanentError marks an error as not worth retrying.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops immediately instead of retrying.
// A nil err returns nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// Bound is a Policy with its defaults filled in and its flare_retry_*
// series resolved. Callers bind once and run every operation through the
// bound Do, which does no registry lookups. A Bound is immutable and
// safe for concurrent use.
type Bound struct {
	p                          Policy
	attempts, retries, giveups *obs.Counter
}

// Bind fills p's defaults and resolves its metric series once.
func (p Policy) Bind() Bound {
	p = p.withDefaults()
	return Bound{
		p:        p,
		attempts: obs.RetryAttempts.In(p.Registry, p.Name),
		retries:  obs.RetryRetries.In(p.Registry, p.Name),
		giveups:  obs.RetryGiveups.In(p.Registry, p.Name),
	}
}

// Do runs op until it succeeds, returns a permanent error, exhausts
// MaxAttempts, or ctx is done. The returned error is the last attempt's
// (unwrapped from Permanent), annotated with the attempt count when
// retries were exhausted.
func (b *Bound) Do(ctx context.Context, op func() error) error {
	p := &b.p
	var jitter *rand.Rand // seeded at the first retry

	delay := p.BaseDelay
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			b.giveups.Inc()
			return err
		}
		b.attempts.Inc()
		err := op()
		if err == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			b.giveups.Inc()
			return pe.err
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			b.giveups.Inc()
			return err
		}
		if attempt >= p.MaxAttempts {
			b.giveups.Inc()
			return fmt.Errorf("retry: %s failed after %d attempts: %w", p.Name, attempt, err)
		}
		b.retries.Inc()

		d := delay
		if p.JitterFrac > 0 {
			if jitter == nil {
				jitter = rand.New(rand.NewSource(p.Seed))
			}
			frac := 1 + p.JitterFrac*(2*jitter.Float64()-1)
			d = time.Duration(float64(d) * frac)
		}
		if err := p.sleep(ctx, d); err != nil {
			b.giveups.Inc()
			return err
		}
		delay = time.Duration(float64(delay) * p.Multiplier)
		if delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
}

// sleep waits d or until ctx is done.
func (p Policy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		p.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
