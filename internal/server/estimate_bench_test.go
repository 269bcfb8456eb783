package server

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"flare/internal/core"
	"flare/internal/machine"
	"flare/internal/metricdb"
	"flare/internal/obs"
)

// estimateServer returns a function that serves one GET of target, an
// /api/estimate URL, through the real Handler (middleware, limiter, cache,
// singleflight, replay, journal, encoding) over p, with an in-memory
// metric DB attached so every computed estimate is journaled through the
// retry policy. refresh is the server's EstimateRefresh: time.Nanosecond
// recomputes on every request, 0 serves the primed cache entry forever.
func estimateServer(b *testing.B, p *core.Pipeline, refresh time.Duration, target string) func() {
	s, err := NewWithTelemetry(p, machine.PaperFeatures(), obs.NewRegistry(), nil)
	if err != nil {
		b.Fatal(err)
	}
	s.AttachDB(metricdb.NewDB())
	s.SetResilience(Options{EstimateRefresh: refresh})
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	return func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("GET %s = %d: %s", target, rec.Code, rec.Body.String())
		}
	}
}

// benchEstimate drives one GET of target per iteration over the shared
// analysed pipeline, after one untimed request that primes the cache, the
// relaxed-state table, a per-job target's strata and every lazily
// registered series.
func benchEstimate(b *testing.B, refresh time.Duration, target string) {
	serve := estimateServer(b, testPipeline(b), refresh, target)
	serve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// BenchmarkEstimateCold is one estimate that replays and journals: the
// cached entry has always aged past EstimateRefresh.
func BenchmarkEstimateCold(b *testing.B) {
	benchEstimate(b, time.Nanosecond, "/api/estimate?feature=feature1")
}

// BenchmarkEstimatePerJobCold is BenchmarkEstimateCold for one HP job's
// per-job estimate, the kind most of the estimate keys are: it replays,
// for each cluster holding the job, the nearest member that holds it.
func BenchmarkEstimatePerJobCold(b *testing.B) {
	benchEstimate(b, time.Nanosecond, "/api/estimate?feature=feature1&job=WSC")
}

// BenchmarkEstimateHot is one estimate served from the primed cache.
func BenchmarkEstimateHot(b *testing.B) { benchEstimate(b, 0, "/api/estimate?feature=feature1") }

// BenchmarkEstimateAfterTick is the first estimate on representatives
// that no estimate has relaxed yet, the most a tick that rebuilds the
// analysis can leave to relax: before each timed request the pipeline
// re-profiles and re-analyses the test population (untimed), which
// starts an empty relaxed-state table, so the request relaxes every
// representative under the baseline and the feature.
func BenchmarkEstimateAfterTick(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Analyze.Clusters = 10
	p, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	set := testPipeline(b).Dataset().Scenarios
	rebuild := func() {
		if err := p.Profile(set); err != nil {
			b.Fatal(err)
		}
		if err := p.Analyze(); err != nil {
			b.Fatal(err)
		}
		runtime.GC() // the rebuild's garbage is not the estimate's cost
	}
	rebuild()
	serve := estimateServer(b, p, time.Nanosecond, "/api/estimate?feature=feature1")
	serve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rebuild()
		b.StartTimer()
		serve()
	}
}
