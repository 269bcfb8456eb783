package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"flare/internal/machine"
	"flare/internal/metricdb"
	"flare/internal/obs"
)

// benchEstimate drives one /api/estimate request per iteration through
// the real Handler (middleware, limiter, cache, singleflight, replay,
// journal, encoding) over the shared analysed pipeline, with an
// in-memory metric DB attached so every computed estimate is journaled
// through the retry policy. refresh is the server's EstimateRefresh:
// time.Nanosecond recomputes on every request, 0 serves the primed
// cache entry forever.
func benchEstimate(b *testing.B, refresh time.Duration) {
	s, err := NewWithTelemetry(testPipeline(b), machine.PaperFeatures(), obs.NewRegistry(), nil)
	if err != nil {
		b.Fatal(err)
	}
	s.AttachDB(metricdb.NewDB())
	s.SetResilience(Options{EstimateRefresh: refresh})
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/api/estimate?feature=feature1", nil)
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("GET /api/estimate = %d: %s", rec.Code, rec.Body.String())
		}
	}
	serve() // prime the cache (and every lazily registered series)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// BenchmarkEstimateCold is one estimate that replays and journals: the
// cached entry has always aged past EstimateRefresh.
func BenchmarkEstimateCold(b *testing.B) { benchEstimate(b, time.Nanosecond) }

// BenchmarkEstimateHot is one estimate served from the primed cache.
func BenchmarkEstimateHot(b *testing.B) { benchEstimate(b, 0) }
