// Graceful degradation for the estimate surface. The server treats the
// durable metric database (and the store under it) as its audit log:
// every estimate it serves is journaled into an "estimates" table. When
// the store is unhealthy — persists fail or the circuit breaker guarding
// them is open — the server degrades instead of erroring: known keys are
// served from the last successfully journaled estimate, flagged
// "degraded": true, and only keys with no history answer 503. A
// concurrency limiter sheds excess load with 429 + Retry-After before it
// can pile onto a struggling store.
package server

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"flare/internal/fault"
	"flare/internal/metricdb"
	"flare/internal/retry"
)

// Options tunes the server's resilience behaviour. The zero value
// disables shedding, timeouts, and staleness — the permissive defaults a
// test harness wants; production mains should set real limits (see
// DefaultResilience).
type Options struct {
	// RequestTimeout bounds how long an estimate request waits on the
	// shared computation before answering 503. 0 waits forever.
	RequestTimeout time.Duration
	// MaxConcurrent bounds in-flight /api requests; excess requests are
	// shed immediately with 429 + Retry-After. 0 means unlimited.
	// /healthz and /metrics are exempt so probes and scrapes always land.
	MaxConcurrent int
	// EstimateRefresh ages the estimate cache: entries older than this
	// are recomputed (and re-journaled) on next request. 0 caches forever.
	EstimateRefresh time.Duration
	// Breaker guards the estimate-journal path; nil gets a default
	// breaker registered in the server's registry.
	Breaker *retry.Breaker
	// Injector optionally injects faults at the "server.estimate" site
	// (evaluated once per estimate computation — latency faults there
	// exercise RequestTimeout). Nil injects nothing.
	Injector *fault.Injector
}

// DefaultResilience returns production-shaped limits for flare-server.
func DefaultResilience() Options {
	return Options{
		RequestTimeout:  30 * time.Second,
		MaxConcurrent:   64,
		EstimateRefresh: 15 * time.Minute,
	}
}

// SetResilience installs resilience options. Call before Handler and
// before serving; later calls replace the limiter and breaker wholesale.
func (s *Server) SetResilience(opts Options) {
	if opts.Breaker == nil {
		opts.Breaker = retry.NewBreaker("server.store", retry.BreakerOptions{Registry: s.reg})
	}
	s.opts = opts
	if opts.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, opts.MaxConcurrent)
	} else {
		s.sem = nil
	}
}

// limit wraps an API handler with the concurrency limiter. Admission is
// non-blocking: a full semaphore sheds the request immediately — under
// overload, fast rejection beats a growing queue.
func (s *Server) limit(route string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sem := s.sem
		if sem == nil {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			next.ServeHTTP(w, r)
		default:
			s.reg.Counter("flare_shed_total",
				"requests shed by the concurrency limiter", "route", route).Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests,
				"server at concurrency limit (%d in flight)", cap(sem))
		}
	})
}

// estimatesTable is the audit-log table every served estimate is
// journaled into (durable when the attached DB is store-backed).
const estimatesTable = "estimates"

// persistEstimate journals one estimate. The store-backed database
// retries the append itself (metricdb's journal policy), so the error
// that reaches the breaker is one the journal already gave up on. A nil
// DB persists nothing and reports success — resilience machinery only
// engages on servers with a durable database attached.
func (s *Server) persistEstimate(resp estimateResponse) error {
	if s.db == nil {
		return nil
	}
	// Get-or-create under the database's lock: estimates computed at once
	// on a fresh database all get the one table.
	t, err := s.db.GetOrCreateTable(estimatesTable, []metricdb.Column{
		{Name: "feature", Type: metricdb.TypeString},
		{Name: "job", Type: metricdb.TypeString},
		{Name: "reduction_pct", Type: metricdb.TypeFloat},
		{Name: "scenarios", Type: metricdb.TypeInt},
	})
	if err != nil {
		return fmt.Errorf("server: creating %s table: %w", estimatesTable, err)
	}
	return t.Insert(metricdb.Row{
		metricdb.String(resp.Feature),
		metricdb.String(resp.Job),
		metricdb.Float(resp.ReductionPct),
		metricdb.Int(int64(resp.ScenariosReplayed)),
	})
}

// degrade resolves a compute that could not be journaled: serve the
// last-known-good estimate for the key flagged degraded, or 503 with
// Retry-After when the key has never been served successfully.
func (s *Server) degrade(e *estimateEntry, key, why string) {
	s.mu.Lock()
	lg, ok := s.lastGood[key]
	s.mu.Unlock()
	if !ok {
		e.fail(http.StatusServiceUnavailable, "estimate temporarily unavailable: "+why)
		e.retryAfter = time.Second
		return
	}
	e.evict = true // degraded results are never cached: next request re-probes
	lg.Degraded = true
	e.succeed(lg)
}

// retryAfterHeader stamps the standard back-off hint on shed/degraded
// error responses.
func retryAfterHeader(w http.ResponseWriter, d time.Duration) {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}
