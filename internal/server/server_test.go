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

	"flare/internal/core"
	"flare/internal/dcsim"
	"flare/internal/machine"
	"flare/internal/obs"
	"flare/internal/replayer"
)

var (
	pipeOnce sync.Once
	pipeVal  *core.Pipeline
	pipeErr  error

	srvOnce sync.Once
	srvVal  *Server
	srvErr  error
)

// testPipeline builds the analysed pipeline fixture shared by every
// server test (it is expensive; resilience tests wrap fresh Servers
// around it instead of rebuilding).
func testPipeline(t testing.TB) *core.Pipeline {
	t.Helper()
	pipeOnce.Do(func() {
		simCfg := dcsim.DefaultConfig()
		simCfg.Duration = 7 * 24 * time.Hour
		simCfg.ResizesPerJobPerDay = 4
		trace, err := dcsim.Run(simCfg)
		if err != nil {
			pipeErr = err
			return
		}
		cfg := core.DefaultConfig()
		cfg.Analyze.Clusters = 10
		p, err := core.New(cfg)
		if err != nil {
			pipeErr = err
			return
		}
		if err := p.Profile(trace.Scenarios); err != nil {
			pipeErr = err
			return
		}
		if err := p.Analyze(); err != nil {
			pipeErr = err
			return
		}
		pipeVal = p
	})
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipeVal
}

func testServer(t *testing.T) *Server {
	t.Helper()
	p := testPipeline(t)
	srvOnce.Do(func() {
		srvVal, srvErr = New(p, machine.PaperFeatures())
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srvVal
}

// get performs a request and decodes the JSON body into out.
func get(t *testing.T, h http.Handler, path string, wantStatus int, out interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("GET %s = %d, want %d (body: %s)", path, rec.Code, wantStatus, rec.Body.String())
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: decoding body: %v", path, err)
		}
	}
}

func TestNewRequiresAnalysedPipeline(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("nil pipeline did not error")
	}
	p, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(p, nil); err == nil {
		t.Error("un-analysed pipeline did not error")
	}
}

func TestNewRejectsDuplicateFeatures(t *testing.T) {
	s := testServer(t)
	_ = s
	feats := []machine.Feature{machine.Baseline(), machine.Baseline()}
	if _, err := New(srvVal.pipeline, feats); err == nil {
		t.Error("duplicate features did not error")
	}
}

func TestHealthz(t *testing.T) {
	h := testServer(t).Handler()
	var body map[string]string
	get(t, h, "/healthz", http.StatusOK, &body)
	if body["status"] != "ok" {
		t.Errorf("healthz status = %q", body["status"])
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := testServer(t).Handler()
	req := httptest.NewRequest(http.MethodPost, "/api/summary", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /api/summary = %d, want 405", rec.Code)
	}
}

func TestSummary(t *testing.T) {
	h := testServer(t).Handler()
	var body summaryResponse
	get(t, h, "/api/summary", http.StatusOK, &body)
	if body.Scenarios == 0 || body.Clusters != 10 {
		t.Errorf("summary = %+v", body)
	}
	if body.PrincipalComps == 0 || body.RefinedMetrics >= body.RawMetrics {
		t.Errorf("summary pipeline stats wrong: %+v", body)
	}
	if len(body.Features) != 3 {
		t.Errorf("features = %v, want 3", body.Features)
	}
}

func TestRepresentatives(t *testing.T) {
	h := testServer(t).Handler()
	var body []representativeResponse
	get(t, h, "/api/representatives", http.StatusOK, &body)
	if len(body) == 0 {
		t.Fatal("no representatives")
	}
	var weight float64
	for _, rep := range body {
		if rep.Key == "" {
			t.Errorf("representative %d has empty key", rep.Cluster)
		}
		weight += rep.WeightPct
	}
	if weight < 99 || weight > 101 {
		t.Errorf("weights sum to %v%%, want 100%%", weight)
	}
}

func TestPCs(t *testing.T) {
	h := testServer(t).Handler()
	var body []pcResponse
	get(t, h, "/api/pcs", http.StatusOK, &body)
	if len(body) == 0 {
		t.Fatal("no PCs")
	}
	for _, pc := range body {
		if pc.Interpretation == "" {
			t.Errorf("PC %d has empty interpretation", pc.Index)
		}
	}
}

func TestScenariosFiltering(t *testing.T) {
	h := testServer(t).Handler()
	var all []scenarioResponse
	get(t, h, "/api/scenarios", http.StatusOK, &all)
	var dc []scenarioResponse
	get(t, h, "/api/scenarios?job=DC", http.StatusOK, &dc)
	if len(dc) == 0 || len(dc) >= len(all) {
		t.Errorf("filtering: %d DC scenarios of %d total", len(dc), len(all))
	}
	get(t, h, "/api/scenarios?job=nosuchjob", http.StatusNotFound, nil)
}

func TestEstimate(t *testing.T) {
	h := testServer(t).Handler()
	var body estimateResponse
	get(t, h, "/api/estimate?feature=feature1", http.StatusOK, &body)
	if body.ReductionPct <= 0 {
		t.Errorf("estimate = %+v, want positive reduction", body)
	}
	if body.ScenariosReplayed == 0 {
		t.Error("estimate reports zero cost")
	}

	var perJob estimateResponse
	get(t, h, "/api/estimate?feature=feature2&job=DC", http.StatusOK, &perJob)
	if perJob.Job != "DC" || perJob.ReductionPct <= 0 {
		t.Errorf("per-job estimate = %+v", perJob)
	}
}

func TestEstimateErrors(t *testing.T) {
	h := testServer(t).Handler()
	get(t, h, "/api/estimate", http.StatusBadRequest, nil)
	get(t, h, "/api/estimate?feature=nosuch", http.StatusNotFound, nil)
	get(t, h, "/api/estimate?feature=feature1&job=nosuchjob", http.StatusBadRequest, nil)
}

func TestEstimateCachedAndConcurrent(t *testing.T) {
	h := testServer(t).Handler()
	// Hammer the same estimate concurrently: all responses must agree.
	const workers = 16
	results := make([]estimateResponse, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, "/api/estimate?feature=feature3", nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			_ = json.Unmarshal(rec.Body.Bytes(), &results[i])
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if results[i].ReductionPct != results[0].ReductionPct {
			t.Fatalf("concurrent estimates disagree: %v vs %v", results[i], results[0])
		}
	}
}

// newTelemetryServer wraps the shared test pipeline in a fresh server
// with an isolated registry and tracer, so telemetry assertions do not
// see counts from other tests.
func newTelemetryServer(t *testing.T) *Server {
	t.Helper()
	testServer(t) // ensure the shared pipeline exists
	reg := obs.NewRegistry()
	s, err := NewWithTelemetry(srvVal.pipeline, machine.PaperFeatures(), reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMetricsExposition(t *testing.T) {
	s := newTelemetryServer(t)
	h := s.Handler()
	// Generate traffic first so the scrape includes request telemetry and
	// (via the estimate's spans) pipeline stage timings.
	get(t, h, "/healthz", http.StatusOK, nil)
	get(t, h, "/api/estimate?feature=feature1", http.StatusOK, nil)
	get(t, h, "/api/estimate", http.StatusBadRequest, nil)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE flare_http_requests_total counter",
		`flare_http_requests_total{code="200",route="/healthz"} 1`,
		`flare_http_requests_total{code="400",route="/api/estimate"} 1`,
		"# TYPE flare_http_request_duration_seconds histogram",
		`flare_http_request_duration_seconds_count{route="/healthz"} 1`,
		"# TYPE flare_stage_duration_seconds histogram",
		`flare_stage_duration_seconds_count{stage="replay.estimate"} 1`,
		`flare_stage_duration_seconds_count{stage="pipeline.evaluate"} 1`,
		`flare_estimate_cache_total{result="miss"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Every non-comment line must be "name{labels} value" — a cheap
	// validity check on the exposition format.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestReplayCounterInInjectedRegistry checks that the replay counter
// lands in the server's own registry, not the process-global one: after
// one estimate a fresh-registry server's /metrics reports one all-job
// replay per representative.
func TestReplayCounterInInjectedRegistry(t *testing.T) {
	s := newTelemetryServer(t)
	h := s.Handler()
	get(t, h, "/api/estimate?feature=feature1", http.StatusOK, nil)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	want := fmt.Sprintf(`flare_replays_total{mode="all-job"} %d`, len(srvVal.pipeline.Representatives()))
	if body := rec.Body.String(); !strings.Contains(body, want+"\n") {
		t.Errorf("/metrics missing %q", want)
	}
}

func TestTraceEndpointSpanNesting(t *testing.T) {
	s := newTelemetryServer(t)
	h := s.Handler()
	get(t, h, "/api/estimate?feature=feature2", http.StatusOK, nil)

	// The request leaves two roots: the middleware's http span and the
	// estimate computation (which runs on its own goroutine/context).
	var roots []obs.SpanSnapshot
	get(t, h, "/api/trace", http.StatusOK, &roots)
	if len(roots) != 2 {
		t.Fatalf("trace roots = %d, want 2", len(roots))
	}
	var root, httpRoot obs.SpanSnapshot
	for _, r := range roots {
		switch r.Name {
		case "server.estimate":
			root = r
		case "http./api/estimate":
			httpRoot = r
		default:
			t.Fatalf("unexpected root span %q", r.Name)
		}
	}
	if httpRoot.Name == "" {
		t.Fatal("missing http request root span")
	}
	foundID := false
	for _, a := range httpRoot.Attrs {
		if a.Key == "request_id" && a.Value != "" {
			foundID = true
		}
	}
	if !foundID {
		t.Errorf("http root missing request_id attr: %+v", httpRoot.Attrs)
	}
	if root.Name != "server.estimate" || root.InFlight {
		t.Errorf("root = %s (in flight %v)", root.Name, root.InFlight)
	}
	if len(root.Children) != 1 || root.Children[0].Name != "pipeline.evaluate" {
		t.Fatalf("root children = %+v", root.Children)
	}
	replay := root.Children[0].Children
	if len(replay) != 1 || replay[0].Name != "replay.estimate" {
		t.Fatalf("evaluate children = %+v", replay)
	}
	if len(replay[0].Children) == 0 {
		t.Error("replay.estimate has no replay.scenario sub-spans")
	}
	for _, c := range replay[0].Children {
		if c.Name != "replay.scenario" {
			t.Errorf("unexpected replay child %q", c.Name)
		}
	}
}

func TestEstimateCacheCounters(t *testing.T) {
	s := newTelemetryServer(t)
	h := s.Handler()
	get(t, h, "/api/estimate?feature=feature1", http.StatusOK, nil)
	get(t, h, "/api/estimate?feature=feature1", http.StatusOK, nil)
	get(t, h, "/api/estimate?feature=feature1&job=DC", http.StatusOK, nil)

	miss := s.Registry().Counter("flare_estimate_cache_total", "", "result", "miss").Value()
	hit := s.Registry().Counter("flare_estimate_cache_total", "", "result", "hit").Value()
	if miss != 2 || hit != 1 {
		t.Errorf("cache counters: miss=%d hit=%d, want miss=2 hit=1", miss, hit)
	}
}

// TestEstimateSingleflight hammers several distinct keys concurrently:
// all requests must succeed, agree per key, and each key must compute at
// most once (misses == distinct keys).
func TestEstimateSingleflight(t *testing.T) {
	s := newTelemetryServer(t)
	h := s.Handler()
	paths := []string{
		"/api/estimate?feature=feature1",
		"/api/estimate?feature=feature2",
		"/api/estimate?feature=feature1&job=DC",
	}
	const perPath = 6
	results := make([][]estimateResponse, len(paths))
	var wg sync.WaitGroup
	for pi, path := range paths {
		results[pi] = make([]estimateResponse, perPath)
		for i := 0; i < perPath; i++ {
			wg.Add(1)
			go func(pi, i int, path string) {
				defer wg.Done()
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s = %d", path, rec.Code)
					return
				}
				_ = json.Unmarshal(rec.Body.Bytes(), &results[pi][i])
			}(pi, i, path)
		}
	}
	wg.Wait()
	for pi := range paths {
		for i := 1; i < perPath; i++ {
			if results[pi][i] != results[pi][0] {
				t.Errorf("%s: responses disagree: %+v vs %+v", paths[pi], results[pi][i], results[pi][0])
			}
		}
	}
	miss := s.Registry().Counter("flare_estimate_cache_total", "", "result", "miss").Value()
	if miss != uint64(len(paths)) {
		t.Errorf("misses = %d, want %d (one computation per key)", miss, len(paths))
	}
}

func TestEstimateErrorsAreNotCached(t *testing.T) {
	s := newTelemetryServer(t)
	h := s.Handler()
	// Unknown job fails inside the computation (per-job estimation), so it
	// exercises the evict-on-error path; a retry must recompute, not serve
	// the cached failure.
	get(t, h, "/api/estimate?feature=feature1&job=nosuchjob", http.StatusBadRequest, nil)
	get(t, h, "/api/estimate?feature=feature1&job=nosuchjob", http.StatusBadRequest, nil)
	miss := s.Registry().Counter("flare_estimate_cache_total", "", "result", "miss").Value()
	if miss != 2 {
		t.Errorf("misses = %d, want 2 (errors must not be cached)", miss)
	}
}

func TestPprofSurface(t *testing.T) {
	h := newTelemetryServer(t).Handler()
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}

func TestPlanEndpoint(t *testing.T) {
	h := testServer(t).Handler()
	var plan replayer.Plan
	get(t, h, "/api/plan", http.StatusOK, &plan)
	if err := plan.Validate(); err != nil {
		t.Errorf("served plan invalid: %v", err)
	}
	if plan.MachineShape != "default" {
		t.Errorf("plan shape = %q, want default", plan.MachineShape)
	}
}
