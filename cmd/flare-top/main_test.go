package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flare/internal/core"
	"flare/internal/dcsim"
	"flare/internal/machine"
	"flare/internal/obs"
	"flare/internal/server"
)

// liveServer builds a small pipeline and serves it, returning the test
// server the dashboard polls.
func liveServer(t *testing.T) *httptest.Server {
	t.Helper()
	simCfg := dcsim.DefaultConfig()
	simCfg.Duration = 3 * 24 * time.Hour
	trace, err := dcsim.Run(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Analyze.Clusters = 6
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Profile(trace.Scenarios); err != nil {
		t.Fatal(err)
	}
	if err := p.Analyze(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv, err := server.NewWithTelemetry(p, machine.PaperFeatures(), reg, obs.NewTracer(reg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestOnceJSONRoundTrip is the acceptance path: flare-top -once -json
// against a live server must emit a parseable report reflecting the
// traffic the server just handled.
func TestOnceJSONRoundTrip(t *testing.T) {
	ts := liveServer(t)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/api/summary")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var buf bytes.Buffer
	if err := run([]string{"-addr", ts.URL, "-once", "-json"}, &buf); err != nil {
		t.Fatalf("flare-top -once -json: %v", err)
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if rep.Health.Status != "ok" {
		t.Errorf("health status = %q (reasons %v), want ok", rep.Health.Status, rep.Health.Reasons)
	}
	if rep.HTTPCode != http.StatusOK {
		t.Errorf("health HTTP code = %d, want 200", rep.HTTPCode)
	}
	// /metrics is polled before /api/health captures the window, so the
	// report must see at least the three summary requests.
	if rep.Requests < 3 {
		t.Errorf("requests_total = %v, want >= 3", rep.Requests)
	}
	if rep.Health.WindowRequests < 3 {
		t.Errorf("window_requests = %d, want >= 3", rep.Health.WindowRequests)
	}
	if len(rep.TopSpans) == 0 {
		t.Error("no spans in report; expected traced /api/summary requests")
	}
	for _, s := range rep.TopSpans {
		if strings.HasPrefix(s.Name, "http.") && s.RequestID == "" {
			t.Errorf("http span %q lacks a request_id", s.Name)
		}
	}
}

// TestOnceDashboardRenders covers the human-facing frame.
func TestOnceDashboardRenders(t *testing.T) {
	ts := liveServer(t)
	resp, err := http.Get(ts.URL + "/api/pcs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var buf bytes.Buffer
	if err := run([]string{"-addr", ts.URL, "-once"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"flare-top", "health", "latency", "slowest recent spans", "OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[2J") {
		t.Error("-once frame must not clear the terminal")
	}
}

func TestOnceFailsOnDeadServer(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-addr", "http://127.0.0.1:1", "-once", "-json"}, &buf); err == nil {
		t.Fatal("expected an error polling a dead server")
	}
}

// TestParsePrometheus checks the dashboard reads /metrics through the
// shared exposition parser: family sums and exact labelled series come
// back, and a malformed exposition fails the poll instead of silently
// dropping series.
func TestParsePrometheus(t *testing.T) {
	text := `# HELP flare_http_requests_total requests
# TYPE flare_http_requests_total counter
flare_http_requests_total{route="/api/summary",code="200"} 7
flare_http_requests_total{route="/api/pcs",code="500"} 2
flare_slo_p99_seconds 0.25
`
	health := `{"status":"ok"}`
	p := &poller{base: fakeNode(t, text, health).URL, hc: http.DefaultClient}
	s, err := p.fetchLite()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.metrics.Sum("flare_http_requests_total"); got != 9 {
		t.Errorf("family sum = %v, want 9", got)
	}
	if got := s.metrics.Sum("flare_slo_p99_seconds"); got != 0.25 {
		t.Errorf("bare gauge = %v, want 0.25", got)
	}
	if got := s.metrics.SumLabel("flare_http_requests_total", "code", "500"); got != 2 {
		t.Errorf("exact series = %v, want 2", got)
	}

	bad := &poller{base: fakeNode(t, text+"malformed line without value x\n", health).URL, hc: http.DefaultClient}
	if _, err := bad.fetchLite(); err == nil || !strings.Contains(err.Error(), "parsing /metrics") {
		t.Errorf("malformed exposition: err = %v, want a /metrics parse error", err)
	}
}

func TestBuildReportQPSAndCache(t *testing.T) {
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	prev := &sample{
		at:      base,
		metrics: obs.MetricSet{"flare_http_requests_total": {`{route="/a",code="200"}`: 10}},
	}
	cur := &sample{
		at: base.Add(2 * time.Second),
		metrics: obs.MetricSet{
			"flare_http_requests_total":  {`{route="/a",code="200"}`: 30},
			"flare_estimate_cache_total": {`{result="hit"}`: 3, `{result="miss"}`: 1},
		},
		spans: []spanRow{
			{Name: "fast", DurationMs: 1},
			{Name: "slow", DurationMs: 9},
			{Name: "mid", DurationMs: 5},
		},
	}
	r := buildReport("http://x", prev, cur, 2)
	if r.QPS != 10 {
		t.Errorf("QPS = %v, want 10", r.QPS)
	}
	if r.CacheHit != 0.75 {
		t.Errorf("cache hit = %v, want 0.75", r.CacheHit)
	}
	if len(r.TopSpans) != 2 || r.TopSpans[0].Name != "slow" || r.TopSpans[1].Name != "mid" {
		t.Errorf("top spans = %+v, want slow,mid", r.TopSpans)
	}
	if first := buildReport("http://x", nil, cur, 2); first.QPS != 0 {
		t.Errorf("first-sample QPS = %v, want 0", first.QPS)
	}
}
