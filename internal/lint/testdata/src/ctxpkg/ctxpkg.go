// Package ctxpkg is the ctxflow fixture: fresh context roots minted
// under an existing ctx, uncancellable sleeps, retry paths that discard
// the caller's ctx, the silently-ignored ctx parameter, the clean
// shapes, and the suppression directive.
package ctxpkg

import (
	"context"
	"time"

	"flare/internal/retry"
)

type rpc struct{ ch chan int }

// freshRoot mints a new root while already holding a ctx.
func (r *rpc) freshRoot(ctx context.Context) {
	c, cancel := context.WithTimeout(context.Background(), time.Second) // want `context.Background\(\) inside a function that already receives ctx`
	defer cancel()
	r.call(c)
}

// retryBackground runs a retry loop nothing can cancel.
func retryBackground(p retry.Policy) error {
	return p.Do(context.Background(), func() error { return nil }) // want "retry path runs on a fresh context root"
}

// sleepy cannot be interrupted by ctx cancellation.
func (r *rpc) sleepy(ctx context.Context) {
	time.Sleep(50 * time.Millisecond) // want "time.Sleep ignores ctx cancellation"
	r.call(ctx)
}

// silent promises cancellability and ignores it while blocking.
func (r *rpc) silent(ctx context.Context) { // want `ctx accepted but never consulted while the function blocks \(channel send\)`
	r.ch <- 1
}

// call threads ctx through properly: clean.
func (r *rpc) call(ctx context.Context) {
	select {
	case <-ctx.Done():
	case r.ch <- 1:
	}
}

// root has no ctx in scope: Background is legitimate at a true entry
// point.
func (r *rpc) root() {
	r.call(context.Background())
}

// blankCtx is honest about ignoring its context.
func (r *rpc) blankCtx(_ context.Context) {
	r.ch <- 1
}

// nonBlocking accepts a ctx for interface reasons and never blocks:
// clean.
func nonBlocking(ctx context.Context) int {
	return 42
}

// exempted documents why a detached root is correct here: best-effort
// under the caller's ctx, then a bounded detached flush.
func (r *rpc) exempted(ctx context.Context) {
	if ctx.Err() != nil {
		return
	}
	//lint:exempt ctxflow flush must complete even when the caller gives up
	c, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	r.call(c)
}

// reasonless names the analyzer but gives no reason, so the directive
// suppresses nothing: the reason is the audit trail.
func (r *rpc) reasonless(ctx context.Context) {
	//lint:exempt ctxflow
	time.Sleep(time.Millisecond) // want "time.Sleep ignores ctx cancellation"
	r.call(ctx)
}
