// Package retry is a fixture stub of flare/internal/retry: ctxflow
// keys on the import path and the Do method shape, not the
// implementation.
package retry

import "context"

// Policy mirrors the real retry policy's surface.
type Policy struct{ Attempts int }

// Bound mirrors the real bound policy, the one retry entry point.
type Bound struct{ p Policy }

// Bind binds the policy.
func (p Policy) Bind() Bound { return Bound{p: p} }

// Do runs op under the policy, honouring ctx between attempts.
func (b *Bound) Do(ctx context.Context, op func() error) error {
	for i := 0; i < b.p.Attempts; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := op(); err == nil {
			return nil
		}
	}
	return context.DeadlineExceeded
}
