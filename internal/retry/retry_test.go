package retry

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"flare/internal/obs"
)

// testPolicy retries fast with a captured delay log.
func testPolicy(delays *[]time.Duration) Policy {
	return Policy{
		MaxAttempts: 4,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    80 * time.Millisecond,
		Registry:    obs.NewRegistry(),
		Sleep: func(d time.Duration) {
			if delays != nil {
				*delays = append(*delays, d)
			}
		},
	}
}

func TestDoSucceedsAfterRetries(t *testing.T) {
	calls := 0
	b := testPolicy(nil).Bind()
	err := b.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("Do = %v after %d calls, want nil after 3", err, calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	calls := 0
	boom := errors.New("boom")
	b := testPolicy(nil).Bind()
	err := b.Do(context.Background(), func() error {
		calls++
		return boom
	})
	if calls != 4 {
		t.Errorf("calls = %d, want 4", calls)
	}
	if !errors.Is(err, boom) {
		t.Errorf("Do = %v, want wrapped boom", err)
	}
}

func TestDoPermanentStopsImmediately(t *testing.T) {
	calls := 0
	boom := errors.New("bad request")
	b := testPolicy(nil).Bind()
	err := b.Do(context.Background(), func() error {
		calls++
		return Permanent(boom)
	})
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
	if err != boom {
		// Do unwraps the permanent marker before returning.
		t.Errorf("Do = %v, want bare boom", err)
	}
}

func TestPermanentNil(t *testing.T) {
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) != nil")
	}
}

func TestDoRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	p := testPolicy(nil)
	p.Sleep = nil // use the real ctx-aware sleep
	p.BaseDelay = time.Hour
	b := p.Bind()
	err := b.Do(ctx, func() error {
		calls++
		cancel() // cancel during the first backoff
		return errors.New("transient")
	})
	if calls != 1 || !errors.Is(err, context.Canceled) {
		t.Errorf("Do = %v after %d calls, want context.Canceled after 1", err, calls)
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	var delays []time.Duration
	p := testPolicy(&delays)
	p.MaxAttempts = 5
	p.JitterFrac = -1 // disable jitter: exact delays
	b := p.Bind()
	_ = b.Do(context.Background(), func() error { return errors.New("x") })
	want := []time.Duration{10, 20, 40, 80} // ms; capped at MaxDelay
	if len(delays) != len(want) {
		t.Fatalf("delays = %v, want 4 entries", delays)
	}
	for i, d := range delays {
		if d != want[i]*time.Millisecond {
			t.Errorf("delay %d = %s, want %dms", i, d, want[i])
		}
	}
}

// TestJitterDeterministic pins the exact jittered backoff for Seed 7 at
// the default JitterFrac, including a delay capped at MaxDelay: fault
// schedules replay through these delays, so any change to how the jitter
// stream is seeded or drawn must leave them byte-identical.
func TestJitterDeterministic(t *testing.T) {
	var delays []time.Duration
	p := testPolicy(&delays)
	p.MaxAttempts = 6
	p.Seed = 7
	b := p.Bind()
	_ = b.Do(context.Background(), func() error { return errors.New("x") })
	want := []time.Duration{11675568, 17852057, 35862201, 93169989, 86343537}
	if fmt.Sprint(delays) != fmt.Sprint(want) {
		t.Errorf("jittered delays = %v, want %v", delays, want)
	}
}

// TestFirstTrySuccessDoesNoJitterWork bounds the allocations of a Do
// whose op succeeds at once. The jitter source is built only when a call
// first retries; a per-call rand source (a ~4.9 KB table) would blow the
// bound on every journaled row and replayed representative.
func TestFirstTrySuccessDoesNoJitterWork(t *testing.T) {
	p := testPolicy(nil)
	p.Seed = 7
	b := p.Bind()
	ctx := context.Background()
	op := func() error { return nil }
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if err := b.Do(ctx, op); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call before the measured runs.
	perCall := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	if perCall > 1024 {
		t.Errorf("first-try Do allocates %d B in %v allocs per call, want <= 1 KiB (no jitter source)", perCall, allocs)
	}
}

func TestRetryMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	p := Policy{MaxAttempts: 3, Registry: reg, Name: "journal",
		Sleep: func(time.Duration) {}}
	bound := p.Bind()
	_ = bound.Do(context.Background(), func() error { return errors.New("x") })
	if got := reg.Counter("flare_retry_attempts_total", "", "op", "journal").Value(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	if got := reg.Counter("flare_retry_giveups_total", "", "op", "journal").Value(); got != 1 {
		t.Errorf("giveups = %d, want 1", got)
	}

	// A first-try success still registers all three series, so the
	// zero-valued retries and giveups appear on /metrics.
	reg = obs.NewRegistry()
	p.Registry = reg
	bound = p.Bind()
	_ = bound.Do(context.Background(), func() error { return nil })
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`flare_retry_attempts_total{op="journal"} 1`,
		`flare_retry_retries_total{op="journal"} 0`,
		`flare_retry_giveups_total{op="journal"} 0`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q in:\n%s", want, b.String())
		}
	}
}

// TestBoundMatchesDo runs one operation mix through a Bound reused
// across operations and through a fresh Bind per operation: both must
// return the same errors and expose byte-identical metrics, and a reused
// Bound must do no registry lookup per operation.
func TestBoundMatchesDo(t *testing.T) {
	fail := errors.New("x")
	ops := []func() error{
		func() error { return nil },
		func() error { return Permanent(fail) },
		func() error { return fail },
		func() error { return nil },
	}
	expose := func(run func(Policy, func() error) error) (string, []string) {
		reg := obs.NewRegistry()
		p := Policy{MaxAttempts: 2, Registry: reg, Name: "replay", Sleep: func(time.Duration) {}}
		var errs []string
		for _, op := range ops {
			errs = append(errs, fmt.Sprint(run(p, op)))
		}
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String(), errs
	}
	var bound Bound
	bindOnce := func(p Policy, op func() error) error {
		if bound.attempts == nil {
			bound = p.Bind()
		}
		return bound.Do(context.Background(), op)
	}
	perOp := func(p Policy, op func() error) error {
		b := p.Bind()
		return b.Do(context.Background(), op)
	}
	gotMetrics, gotErrs := expose(bindOnce)
	wantMetrics, wantErrs := expose(perOp)
	if gotMetrics != wantMetrics {
		t.Errorf("bound exposition:\n%s\nwant:\n%s", gotMetrics, wantMetrics)
	}
	if fmt.Sprint(gotErrs) != fmt.Sprint(wantErrs) {
		t.Errorf("bound errors %q, want %q", gotErrs, wantErrs)
	}

	b := Policy{Registry: obs.NewRegistry(), Name: "replay"}.Bind()
	ok := func() error { return nil }
	if allocs := testing.AllocsPerRun(100, func() { _ = b.Do(context.Background(), ok) }); allocs != 0 {
		t.Errorf("first-try bound Do allocates %v times, want 0", allocs)
	}
}

// fakeClock is a manually advanced breaker clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(clock *fakeClock) *Breaker {
	return NewBreaker("test", BreakerOptions{
		Threshold: 3,
		Cooldown:  time.Second,
		Now:       clock.now,
		Registry:  obs.NewRegistry(),
	})
}

func TestBreakerLifecycle(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	b := newTestBreaker(clock)
	boom := errors.New("down")

	// Below threshold: stays closed.
	b.Record(boom)
	b.Record(boom)
	if b.State() != Closed || b.Allow() != nil {
		t.Fatalf("state after 2 failures = %v, want closed", b.State())
	}
	// A success clears the run.
	b.Record(nil)
	b.Record(boom)
	b.Record(boom)
	if b.State() != Closed {
		t.Fatal("failure run not reset by success")
	}
	// Third consecutive failure trips it.
	b.Record(boom)
	if b.State() != Open {
		t.Fatalf("state after threshold = %v, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow while open = %v, want ErrOpen", err)
	}

	// Cooldown elapses: one probe admitted, concurrent calls rejected.
	clock.advance(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe not admitted after cooldown: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("second concurrent probe admitted: %v", err)
	}
	// Probe fails: straight back to open.
	b.Record(boom)
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}

	// Next probe succeeds: closed again.
	clock.advance(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe not admitted after second cooldown: %v", err)
	}
	b.Record(nil)
	if b.State() != Closed || b.Allow() != nil {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
}

func TestBreakerTripMetric(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBreaker("m", BreakerOptions{Threshold: 1, Registry: reg})
	b.Record(errors.New("x"))
	if got := reg.Counter("flare_breaker_trips_total", "", "breaker", "m").Value(); got != 1 {
		t.Errorf("trips = %d, want 1", got)
	}
	if got := obs.BreakerState.In(reg, "m").Value(); got != float64(Open) {
		t.Errorf("state gauge = %v, want %v", got, float64(Open))
	}
}
