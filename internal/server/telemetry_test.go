package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"flare/internal/machine"
	"flare/internal/metricdb"
	"flare/internal/obs"
	"flare/internal/retry"
	"flare/internal/store"
)

// exportServer builds a server over the shared pipeline fixture with
// durable trace export into a store at dir. Close the returned store
// (after CloseTelemetry) to simulate a shutdown; reopening dir recovers
// the history.
func exportServer(t *testing.T, dir string, opts ExportOptions) (*Server, *store.Store) {
	t.Helper()
	p := testPipeline(t)
	s, err := NewWithTelemetry(p, machine.PaperFeatures(), obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	stOpts := store.DefaultOptions()
	stOpts.Registry = obs.NewRegistry()
	st, err := store.Open(dir, stOpts)
	if err != nil {
		t.Fatal(err)
	}
	db, err := metricdb.OpenDB(st)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachDB(db)
	if err := s.EnableTraceExport(db, opts); err != nil {
		t.Fatal(err)
	}
	dumpArtifactsOnFailure(t, s)
	return s, st
}

// TestTraceExportSurvivesRestart is the acceptance path: requests
// served before a shutdown are still readable through /api/trace?page=
// after the store is reopened by a fresh server process.
func TestTraceExportSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, st := exportServer(t, dir, ExportOptions{})
	h := s.Handler()
	for i := 0; i < 3; i++ {
		get(t, h, "/api/summary", http.StatusOK, nil)
	}
	s.FlushTelemetry()
	var before tracePage
	get(t, h, "/api/trace?page=0", http.StatusOK, &before)
	if before.Total != 3 {
		t.Fatalf("pre-restart total = %d, want 3", before.Total)
	}
	oldIDs := make(map[string]bool)
	for _, tr := range before.Traces {
		oldIDs[tr.ID] = true
	}
	s.CloseTelemetry()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh server, same store directory.
	s2, st2 := exportServer(t, dir, ExportOptions{})
	defer st2.Close()
	defer s2.CloseTelemetry()
	h2 := s2.Handler()
	get(t, h2, "/api/pcs", http.StatusOK, nil)
	s2.FlushTelemetry()

	var page tracePage
	get(t, h2, "/api/trace?page=0&page_size=10", http.StatusOK, &page)
	if page.Total != 4 {
		t.Fatalf("post-restart total = %d, want 4 (3 historical + 1 new)", page.Total)
	}
	if len(page.Traces) != 4 {
		t.Fatalf("page traces = %d, want 4", len(page.Traces))
	}
	// Newest first: the fresh request leads, history follows.
	if page.Traces[0].Route != "/api/pcs" {
		t.Errorf("newest trace route = %q, want /api/pcs", page.Traces[0].Route)
	}
	recoveredOld := 0
	for _, tr := range page.Traces[1:] {
		if tr.Route != "/api/summary" {
			t.Errorf("historical trace route = %q, want /api/summary", tr.Route)
		}
		if oldIDs[tr.ID] {
			recoveredOld++
		}
		if tr.Status != http.StatusOK || tr.DurationMs < 0 {
			t.Errorf("historical trace = %+v", tr)
		}
		if !strings.Contains(string(tr.Trace), "http./api/summary") {
			t.Errorf("historical trace JSON lacks span tree: %s", tr.Trace)
		}
	}
	if recoveredOld != 3 {
		t.Errorf("recovered %d pre-restart request IDs, want 3", recoveredOld)
	}
}

func TestTracePaging(t *testing.T) {
	s, st := exportServer(t, t.TempDir(), ExportOptions{})
	defer st.Close()
	defer s.CloseTelemetry()
	h := s.Handler()
	for i := 0; i < 7; i++ {
		get(t, h, "/api/summary", http.StatusOK, nil)
	}
	s.FlushTelemetry()

	seen := make(map[string]bool)
	for pageNo := 0; pageNo < 3; pageNo++ {
		var page tracePage
		get(t, h, fmt.Sprintf("/api/trace?page=%d&page_size=3", pageNo), http.StatusOK, &page)
		if page.Total != 7 {
			t.Fatalf("page %d total = %d, want 7", pageNo, page.Total)
		}
		wantLen := 3
		if pageNo == 2 {
			wantLen = 1
		}
		if len(page.Traces) != wantLen {
			t.Fatalf("page %d has %d traces, want %d", pageNo, len(page.Traces), wantLen)
		}
		for _, tr := range page.Traces {
			if seen[tr.ID] {
				t.Errorf("trace %s repeated across pages", tr.ID)
			}
			seen[tr.ID] = true
		}
	}
	// Past the end: empty page, not an error.
	var empty tracePage
	get(t, h, "/api/trace?page=9&page_size=3", http.StatusOK, &empty)
	if len(empty.Traces) != 0 {
		t.Errorf("out-of-range page has %d traces", len(empty.Traces))
	}
	// A page number whose offset overflows int is past the end too.
	var huge tracePage
	get(t, h, "/api/trace?page=9223372036854775803&page_size=2", http.StatusOK, &huge)
	if len(huge.Traces) != 0 {
		t.Errorf("overflowing page has %d traces", len(huge.Traces))
	}
	// Bad parameters are 400s.
	get(t, h, "/api/trace?page=-1", http.StatusBadRequest, nil)
	get(t, h, "/api/trace?page=0&page_size=nope", http.StatusBadRequest, nil)
	// No parameters: the live ring, an array (back-compat shape).
	var roots []obs.SpanSnapshot
	get(t, h, "/api/trace", http.StatusOK, &roots)
	if len(roots) == 0 {
		t.Error("live ring empty after traffic")
	}
}

func TestTracePagingWithoutExport(t *testing.T) {
	s := newTelemetryServer(t)
	h := s.Handler()
	get(t, h, "/api/trace?page=0", http.StatusNotFound, nil)
}

// TestExportRetention drives the retention knob: the traces table must
// stay near the cap, and the truncation must hold across a restart.
func TestExportRetention(t *testing.T) {
	dir := t.TempDir()
	s, st := exportServer(t, dir, ExportOptions{Retain: 5})
	h := s.Handler()
	for i := 0; i < 20; i++ {
		get(t, h, "/api/summary", http.StatusOK, nil)
	}
	s.FlushTelemetry()
	cap := 5 + retentionSlack(5)
	if n := s.exporter.traces.Len(); n > cap {
		t.Errorf("retained traces = %d, want <= %d", n, cap)
	}
	var page tracePage
	get(t, h, "/api/trace?page=0&page_size=50", http.StatusOK, &page)
	if page.Total > cap {
		t.Errorf("paged total = %d, want <= %d", page.Total, cap)
	}
	s.CloseTelemetry()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	s2, st2 := exportServer(t, dir, ExportOptions{Retain: 5})
	defer st2.Close()
	defer s2.CloseTelemetry()
	if n := s2.exporter.traces.Len(); n > cap {
		t.Errorf("recovered traces = %d, want <= %d (truncation must survive restart)", n, cap)
	}
}

// TestRequestWideEvents checks the middleware's structured logging end
// to end: one wide event per traced request, carrying the request ID
// the response advertised, and the same event journaled durably via the
// EventHook.
func TestRequestWideEvents(t *testing.T) {
	s, st := exportServer(t, t.TempDir(), ExportOptions{})
	defer st.Close()
	defer s.CloseTelemetry()
	var buf syncLogBuffer
	logger := obs.NewLogger(&buf, obs.LoggerOptions{
		Registry: s.Registry(),
		Hook:     s.EventHook(),
	})
	s.SetLogger(logger)
	h := s.Handler()

	req := httptest.NewRequest(http.MethodGet, "/api/summary", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /api/summary = %d", rec.Code)
	}
	reqID := rec.Header().Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("response missing X-Request-Id")
	}
	out := buf.String()
	if !strings.Contains(out, "msg=request") || !strings.Contains(out, "request_id="+reqID) ||
		!strings.Contains(out, "route=/api/summary") || !strings.Contains(out, "status=200") {
		t.Errorf("wide event missing fields:\n%s", out)
	}
	// Probe routes emit no wide events.
	get(t, h, "/healthz", http.StatusOK, nil)
	if n := strings.Count(buf.String(), "msg=request"); n != 1 {
		t.Errorf("wide events = %d, want 1 (probes must not log)", n)
	}

	s.FlushTelemetry()
	found := false
	for _, row := range s.exporter.events.Select(nil) {
		if row[2].S == "request" && strings.Contains(row[3].S, reqID) {
			found = true
		}
	}
	if !found {
		t.Error("request event not journaled to the events table")
	}
}

// TestHealthDegradedUnderStoreOutage is the /api/health acceptance
// path: an injected store outage opens the breaker and the verdict
// flips from ok to degraded, with the breaker named in the reasons.
func TestHealthDegradedUnderStoreOutage(t *testing.T) {
	clock := time.Unix(0, 0)
	breaker := retry.NewBreaker("server.store", retry.BreakerOptions{
		Threshold: 1,
		Cooldown:  time.Hour,
		Now:       func() time.Time { return clock },
		Registry:  obs.NewRegistry(),
	})
	s, st := resilientServer(t, Options{
		EstimateRefresh: time.Nanosecond,
		Breaker:         breaker,
	})
	dumpArtifactsOnFailure(t, s)
	h := s.Handler()

	var healthy sloStatus
	get(t, h, "/api/health", http.StatusOK, &healthy)
	if healthy.Status != "ok" || healthy.Breaker != "closed" {
		t.Fatalf("baseline health = %+v, want ok/closed", healthy)
	}

	feat := machine.PaperFeatures()[0].Name
	get(t, h, "/api/estimate?feature="+feat, http.StatusOK, nil)
	outage(t, st)
	get(t, h, "/api/estimate?feature="+feat, http.StatusOK, nil) // degraded serve, breaker trips

	var sick sloStatus
	get(t, h, "/api/health", http.StatusOK, &sick)
	if sick.Status != "degraded" {
		t.Fatalf("health during outage = %+v, want degraded", sick)
	}
	if sick.Breaker != "open" {
		t.Errorf("breaker state = %q, want open", sick.Breaker)
	}
	joined := strings.Join(sick.Reasons, "; ")
	if !strings.Contains(joined, "breaker open") {
		t.Errorf("reasons %q do not name the open breaker", joined)
	}
}

// TestHealthFailingOnBurn floods the window with 5xx answers; the burn
// rate blows through the failing threshold and /api/health answers 503.
func TestHealthFailingOnBurn(t *testing.T) {
	s := newTelemetryServer(t)
	dumpArtifactsOnFailure(t, s)
	h := s.Handler()

	// An unknown route pattern cannot 5xx; use the estimate surface with
	// an injected failure instead: estimates for never-served keys 503
	// while the breaker is open.
	breaker := retry.NewBreaker("server.store", retry.BreakerOptions{
		Threshold: 1, Cooldown: time.Hour, Registry: obs.NewRegistry()})
	breaker.Record(fmt.Errorf("forced"))
	s.SetResilience(Options{Breaker: breaker})
	for i := 0; i < 10; i++ {
		get(t, h, "/api/estimate?feature="+machine.PaperFeatures()[0].Name,
			http.StatusServiceUnavailable, nil)
	}

	var verdict sloStatus
	req := httptest.NewRequest(http.MethodGet, "/api/health", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/api/health = %d, want 503 (body: %s)", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &verdict); err != nil {
		t.Fatal(err)
	}
	if verdict.Status != "failing" {
		t.Errorf("verdict = %+v, want failing", verdict)
	}
	if verdict.WindowErrors == 0 || verdict.BurnRate < 10 {
		t.Errorf("window errors=%d burn=%v; want errors>0, burn>=10",
			verdict.WindowErrors, verdict.BurnRate)
	}
}

// TestSLOMetricsExposed checks /metrics refreshes and exposes the
// flare_slo_* family on every scrape.
func TestSLOMetricsExposed(t *testing.T) {
	s := newTelemetryServer(t)
	h := s.Handler()
	get(t, h, "/api/summary", http.StatusOK, nil)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE flare_slo_p50_seconds gauge",
		"# TYPE flare_slo_p99_seconds gauge",
		"# TYPE flare_slo_p999_seconds gauge",
		"# TYPE flare_slo_error_budget_burn gauge",
		"flare_slo_window_requests 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTraceHammer hammers /api/trace, Tracer.Snapshot, and traced
// requests concurrently; run with -race. The ring must stay bounded and
// every request must answer 200.
func TestTraceHammer(t *testing.T) {
	s, st := exportServer(t, t.TempDir(), ExportOptions{Retain: 16})
	defer st.Close()
	defer s.CloseTelemetry()
	s.SetLogger(obs.NewLogger(&syncLogBuffer{}, obs.LoggerOptions{Hook: s.EventHook()}))
	h := s.Handler()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				var path string
				switch (w + i) % 3 {
				case 0:
					path = "/api/summary"
				case 1:
					path = "/api/trace"
				default:
					path = "/api/pcs"
				}
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s = %d", path, rec.Code)
					return
				}
				if snap := s.Tracer().Snapshot(); len(snap) > obs.DefaultTraceCapacity {
					t.Errorf("ring overflow: %d > %d", len(snap), obs.DefaultTraceCapacity)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s.FlushTelemetry()
	if n := len(s.Tracer().Snapshot()); n > obs.DefaultTraceCapacity {
		t.Fatalf("final ring size %d exceeds capacity %d", n, obs.DefaultTraceCapacity)
	}
}

// syncLogBuffer is a goroutine-safe strings.Builder for log output.
type syncLogBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncLogBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncLogBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// BenchmarkRequestTelemetry measures the middleware's per-request
// overhead on a traced route with structured logging disabled — the
// telemetry hot path every /api request pays.
func BenchmarkRequestTelemetry(b *testing.B) {
	reg := obs.NewRegistry()
	s := &Server{
		reg:      reg,
		tracer:   obs.NewTracer(reg),
		reqBase:  "bench",
		cache:    make(map[string]*estimateEntry),
		lastGood: make(map[string]estimateResponse),
	}
	s.slo = newSLOTracker(reg)
	h := s.instrument("/api/bench", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	req := httptest.NewRequest(http.MethodGet, "/api/bench", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
}

// BenchmarkRequestTelemetryUntraced is the same path for an untraced
// (probe/scrape) route — counters and histogram only.
func BenchmarkRequestTelemetryUntraced(b *testing.B) {
	reg := obs.NewRegistry()
	s := &Server{
		reg:      reg,
		tracer:   obs.NewTracer(reg),
		reqBase:  "bench",
		cache:    make(map[string]*estimateEntry),
		lastGood: make(map[string]estimateResponse),
	}
	s.slo = newSLOTracker(reg)
	h := s.instrument("/healthz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
}
