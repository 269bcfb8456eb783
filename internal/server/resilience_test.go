package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flare/internal/fault"
	"flare/internal/machine"
	"flare/internal/metricdb"
	"flare/internal/obs"
	"flare/internal/retry"
	"flare/internal/store"
)

// resilientServer builds an isolated server over the shared pipeline
// fixture, with a durable metric DB and the given resilience knobs.
// The returned store is the injection point for simulated outages.
func resilientServer(t *testing.T, opts Options) (*Server, *store.Store) {
	t.Helper()
	p := testPipeline(t)
	s, err := NewWithTelemetry(p, machine.PaperFeatures(), obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	stOpts := store.DefaultOptions()
	stOpts.Registry = obs.NewRegistry()
	st, err := store.Open(t.TempDir(), stOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	db, err := metricdb.OpenDB(st)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachDB(db)
	s.SetResilience(opts)
	return s, st
}

// outage arms a total WAL-append failure on the server's store.
func outage(t *testing.T, st *store.Store) *fault.Injector {
	t.Helper()
	in, err := fault.New(fault.MustParseSpec("store.wal.append=error@1"), 1, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	st.SetInjector(in)
	return in
}

// TestDegradedModeUnderStoreOutage drives the headline resilience
// property: once a key has been served successfully, an injected store
// outage must never turn it into a 5xx — the server answers from
// last-known-good with "degraded": true until the store heals.
func TestDegradedModeUnderStoreOutage(t *testing.T) {
	clock := time.Unix(0, 0)
	breaker := retry.NewBreaker("server.store", retry.BreakerOptions{
		Threshold: 1,
		Cooldown:  time.Second,
		Now:       func() time.Time { return clock },
		Registry:  obs.NewRegistry(),
	})
	s, st := resilientServer(t, Options{
		EstimateRefresh: time.Nanosecond, // every request recomputes
		Breaker:         breaker,
	})
	h := s.Handler()
	feat := machine.PaperFeatures()[0].Name
	path := "/api/estimate?feature=" + feat

	// Healthy store: a fresh estimate, journaled.
	var healthy estimateResponse
	get(t, h, path, http.StatusOK, &healthy)
	if healthy.Degraded {
		t.Fatal("healthy response flagged degraded")
	}
	tbl, err := s.db.Table(estimatesTable)
	if err != nil || tbl.Len() == 0 {
		t.Fatalf("estimate was not journaled: table=%v err=%v", tbl, err)
	}

	// Store down: the stale cache forces a recompute, the journal append
	// fails, and the server degrades instead of erroring — repeatedly.
	outage(t, st)
	for i := 0; i < 3; i++ {
		var resp estimateResponse
		get(t, h, path, http.StatusOK, &resp)
		if !resp.Degraded {
			t.Fatalf("request %d during outage not flagged degraded", i)
		}
		if resp.ReductionPct != healthy.ReductionPct {
			t.Fatalf("degraded response altered the estimate: %v vs %v",
				resp.ReductionPct, healthy.ReductionPct)
		}
	}
	if breaker.State() != retry.Open {
		t.Fatalf("breaker state after outage = %v, want Open", breaker.State())
	}

	// A key never served before has no last-known-good: 503 + Retry-After.
	other := "/api/estimate?feature=" + machine.PaperFeatures()[1].Name
	req := httptest.NewRequest(http.MethodGet, other, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("uncached key during outage = %d, want 503 (body: %s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 during outage lacks Retry-After")
	}

	// Store heals, breaker cooldown elapses: fresh non-degraded service.
	st.SetInjector(nil)
	clock = clock.Add(2 * time.Second)
	var healed estimateResponse
	get(t, h, path, http.StatusOK, &healed)
	if healed.Degraded {
		t.Error("response after heal still degraded")
	}
	if breaker.State() != retry.Closed {
		t.Errorf("breaker state after heal = %v, want Closed", breaker.State())
	}
}

// TestOneRetryLayerPerEstimateJournal pins how often a served estimate's
// audit row is tried under a total store outage: the metric journal's
// policy is the only retry between an estimate and the store, so one
// recomputed estimate makes exactly that policy's 4 WAL-append attempts.
// The estimate is then served last-known-good: the healthy body, flagged
// degraded.
func TestOneRetryLayerPerEstimateJournal(t *testing.T) {
	s, st := resilientServer(t, Options{EstimateRefresh: time.Nanosecond})
	h := s.Handler()
	path := "/api/estimate?feature=" + machine.PaperFeatures()[0].Name
	body := func() string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200 (body: %s)", path, rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	healthy := body()

	in := outage(t, st)
	degraded := body()
	if want := strings.TrimSuffix(healthy, "}\n") + `,"degraded":true}` + "\n"; degraded != want {
		t.Errorf("degraded body = %q, want %q", degraded, want)
	}
	appends := 0
	for _, ev := range in.Schedule() {
		if ev.Site == "store.wal.append" {
			appends++
		}
	}
	if appends != 4 {
		t.Errorf("store.wal.append faults for one estimate = %d, want 4 (schedule %s)",
			appends, in.ScheduleString())
	}
}

// TestConcurrencyLimiterSheds fills the admission semaphore directly and
// verifies /api routes shed with 429 + Retry-After while /healthz and
// /metrics stay reachable.
func TestConcurrencyLimiterSheds(t *testing.T) {
	s, _ := resilientServer(t, Options{MaxConcurrent: 2})
	h := s.Handler()

	s.sem <- struct{}{}
	s.sem <- struct{}{}
	defer func() { <-s.sem; <-s.sem }()

	req := httptest.NewRequest(http.MethodGet, "/api/summary", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("GET /api/summary at limit = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 lacks Retry-After")
	}
	if got := s.reg.Counter("flare_shed_total", "", "route", "/api/summary").Value(); got != 1 {
		t.Errorf("flare_shed_total = %d, want 1", got)
	}

	get(t, h, "/healthz", http.StatusOK, nil)
	reqM := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	recM := httptest.NewRecorder()
	h.ServeHTTP(recM, reqM)
	if recM.Code != http.StatusOK {
		t.Errorf("GET /metrics at limit = %d, want 200 (exempt)", recM.Code)
	}
}

// TestRequestTimeoutBounds verifies a slow estimate computation turns
// into a bounded 503 for the waiter instead of an unbounded hang.
func TestRequestTimeoutBounds(t *testing.T) {
	in, err := fault.New(fault.MustParseSpec("server.estimate=latency@1:300ms"), 1, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	s, _ := resilientServer(t, Options{
		RequestTimeout: 30 * time.Millisecond,
		Injector:       in,
	})
	h := s.Handler()
	path := fmt.Sprintf("/api/estimate?feature=%s", machine.PaperFeatures()[0].Name)

	start := time.Now()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("slow estimate = %d, want 503 (body: %s)", rec.Code, rec.Body.String())
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Errorf("timeout took %s, want ~30ms", elapsed)
	}
	if got := s.reg.Counter("flare_request_timeouts_total", "",
		"route", "/api/estimate").Value(); got != 1 {
		t.Errorf("flare_request_timeouts_total = %d, want 1", got)
	}
}

// TestPersistEstimateConcurrentFreshDB journals 16 estimates at once
// into a fresh store-backed database: every one must succeed (the
// "estimates" table is created once, not raced), and each is journaled.
func TestPersistEstimateConcurrentFreshDB(t *testing.T) {
	const writers = 16
	s, st := resilientServer(t, Options{})
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		go func(g int) {
			errs <- s.persistEstimate(estimateResponse{Feature: "feature1",
				Job: fmt.Sprintf("job%d", g), ReductionPct: float64(g), ScenariosReplayed: 18})
		}(g)
	}
	for g := 0; g < writers; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	tbl, err := s.db.Table(estimatesTable)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != writers {
		t.Errorf("estimates rows = %d, want %d", tbl.Len(), writers)
	}
	if got := st.Registry().Counter("flare_store_wal_appends_total", "").Value(); got != writers+1 {
		t.Errorf("journaled records = %d, want %d rows + 1 schema", got, writers)
	}
}
