// SLO health: sliding-window latency quantiles and error-budget burn
// over the request telemetry the middleware already records. The
// tracker snapshots the cumulative flare_http_request_duration_seconds
// histogram (plus error and shed counters) on each evaluation, keeps a
// short ring of timestamped snapshots, and differences the newest
// against the oldest inside the window — so p50/p99/p999 and the burn
// rate describe recent traffic, not the process's whole lifetime. The
// verdict (ok/degraded/failing, with reasons) feeds /api/health and the
// flare_slo_* gauges feed /metrics and flare-top.
package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"flare/internal/obs"
	"flare/internal/retry"
)

// httpLatencyFamily is the middleware's request latency histogram, the
// SLO layer's data source.
const httpLatencyFamily = "flare_http_request_duration_seconds"

// The health verdict's fixed objectives.
const (
	// sloWindow is how far back quantiles and burn rate look.
	sloWindow = 5 * time.Minute
	// sloMaxSamples bounds the snapshot ring.
	sloMaxSamples = 128
	// sloLatencyObjective is the p99 target; a window p99 above it
	// degrades the verdict.
	sloLatencyObjective = 2 * time.Second
	// sloAvailability is the SLO target used for burn-rate math: burn =
	// error_rate / (1 - sloAvailability).
	sloAvailability = 0.999
	// sloDegradedBurn / sloFailingBurn are burn-rate thresholds: eating
	// budget exactly on schedule, and eating it 10x fast.
	sloDegradedBurn = 1.0
	sloFailingBurn  = 10.0
)

// sloSample is one cumulative capture of the request telemetry.
type sloSample struct {
	t        time.Time
	hist     obs.HistogramState
	requests uint64
	errors   uint64
	shed     uint64
}

// sloTracker computes windowed SLO state. Safe for concurrent use.
type sloTracker struct {
	reg *obs.Registry

	mu      sync.Mutex
	samples []sloSample // time-ordered; samples[0] is the window baseline

	p50, p99, p999 *obs.Gauge
	burn           *obs.Gauge
	errRate        *obs.Gauge
	windowReqs     *obs.Gauge
}

func newSLOTracker(reg *obs.Registry) *sloTracker {
	return &sloTracker{
		reg: reg,
		p50: reg.Gauge("flare_slo_p50_seconds",
			"request latency p50 over the SLO window"),
		p99: reg.Gauge("flare_slo_p99_seconds",
			"request latency p99 over the SLO window"),
		p999: reg.Gauge("flare_slo_p999_seconds",
			"request latency p99.9 over the SLO window"),
		burn: reg.Gauge("flare_slo_error_budget_burn",
			"error-budget burn rate over the SLO window (1 = on schedule)"),
		errRate: reg.Gauge("flare_slo_error_rate",
			"5xx fraction of requests over the SLO window"),
		windowReqs: reg.Gauge("flare_slo_window_requests",
			"requests observed inside the SLO window"),
	}
}

// capture reads the cumulative telemetry the middleware maintains.
func (s *sloTracker) capture(now time.Time) sloSample {
	sm := sloSample{t: now}
	if st, ok := s.reg.HistogramState(httpLatencyFamily); ok {
		sm.hist = st
	}
	if n, ok := s.reg.CounterFamilyTotal("flare_http_requests_total", nil); ok {
		sm.requests = n
	}
	if n, ok := s.reg.CounterFamilyTotal("flare_http_requests_total", func(labels string) bool {
		return strings.Contains(labels, `code="5`)
	}); ok {
		sm.errors = n
	}
	if n, ok := s.reg.CounterFamilyTotal("flare_shed_total", nil); ok {
		sm.shed = n
	}
	return sm
}

// sloStatus is the computed window state behind /api/health.
type sloStatus struct {
	Status         string   `json:"status"` // ok | degraded | failing
	Reasons        []string `json:"reasons,omitempty"`
	Breaker        string   `json:"breaker"`
	WindowSeconds  float64  `json:"window_seconds"`
	WindowRequests uint64   `json:"window_requests"`
	WindowErrors   uint64   `json:"window_errors"`
	WindowShed     uint64   `json:"window_shed"`
	ErrorRate      float64  `json:"error_rate"`
	BurnRate       float64  `json:"error_budget_burn"`
	P50Ms          float64  `json:"p50_ms"`
	P99Ms          float64  `json:"p99_ms"`
	P999Ms         float64  `json:"p999_ms"`
	// Cluster reports per-peer health and replication lag on nodes
	// running with EnableCluster; absent on single-node servers.
	Cluster *clusterHealth `json:"cluster,omitempty"`
}

// evaluate appends a fresh sample, prunes the window, computes the
// windowed quantiles/burn, updates the flare_slo_* gauges, and returns
// the verdict given the breaker's current state.
func (s *sloTracker) evaluate(breaker retry.State) sloStatus {
	s.mu.Lock()
	defer s.mu.Unlock()

	now := time.Now()
	cur := s.capture(now)
	s.samples = append(s.samples, cur)
	// Prune to the window, but keep the newest sample that is *older*
	// than the window as the delta baseline — without it the first
	// in-window sample would truncate the window to its own age.
	cut := 0
	for i, sm := range s.samples {
		if now.Sub(sm.t) > sloWindow {
			cut = i
		}
	}
	s.samples = s.samples[cut:]
	trimmed := false
	if len(s.samples) > sloMaxSamples {
		s.samples = s.samples[len(s.samples)-sloMaxSamples:]
		trimmed = true
	}

	// While every retained sample is younger than the window, the window
	// reaches back past process start, so the baseline is zero (lifetime
	// totals). Without this, two evaluations milliseconds apart — e.g. a
	// /metrics scrape followed by /api/health — would collapse the
	// "window" to the gap between them. Once history genuinely spans the
	// window (or the ring overflowed), the oldest retained sample is the
	// baseline.
	base := sloSample{}
	if old := s.samples[0]; trimmed || now.Sub(old.t) > sloWindow {
		base = old
	}
	delta := cur.hist.Sub(base.hist)
	reqs := cur.requests - base.requests
	errs := cur.errors - base.errors
	shed := cur.shed - base.shed

	st := sloStatus{
		Breaker:        breaker.String(),
		WindowSeconds:  sloWindow.Seconds(),
		WindowRequests: reqs,
		WindowErrors:   errs,
		WindowShed:     shed,
		P50Ms:          1000 * delta.Quantile(0.50),
		P99Ms:          1000 * delta.Quantile(0.99),
		P999Ms:         1000 * delta.Quantile(0.999),
	}
	if reqs > 0 {
		st.ErrorRate = float64(errs) / float64(reqs)
	}
	st.BurnRate = st.ErrorRate / (1 - sloAvailability)

	var reasons []string
	failing := false
	if st.BurnRate >= sloFailingBurn {
		failing = true
		reasons = append(reasons, fmt.Sprintf(
			"error-budget burn %.1fx >= failing threshold %.1fx", st.BurnRate, sloFailingBurn))
	}
	if breaker == retry.Open {
		reasons = append(reasons, "store circuit breaker open")
	}
	if !failing && st.BurnRate >= sloDegradedBurn {
		reasons = append(reasons, fmt.Sprintf(
			"error-budget burn %.1fx >= degraded threshold %.1fx", st.BurnRate, sloDegradedBurn))
	}
	if p99 := time.Duration(st.P99Ms * float64(time.Millisecond)); reqs > 0 && p99 > sloLatencyObjective {
		reasons = append(reasons, fmt.Sprintf(
			"window p99 %s exceeds objective %s", p99.Round(time.Millisecond), sloLatencyObjective))
	}
	if shed > 0 {
		reasons = append(reasons, fmt.Sprintf("%d requests shed in window", shed))
	}
	switch {
	case failing:
		st.Status = "failing"
	case len(reasons) > 0:
		st.Status = "degraded"
	default:
		st.Status = "ok"
	}
	st.Reasons = reasons

	s.p50.Set(delta.Quantile(0.50))
	s.p99.Set(delta.Quantile(0.99))
	s.p999.Set(delta.Quantile(0.999))
	s.burn.Set(st.BurnRate)
	s.errRate.Set(st.ErrorRate)
	s.windowReqs.Set(float64(reqs))
	return st
}

// breakerState reports the resilience breaker's position (Closed when
// resilience was never configured).
func (s *Server) breakerState() retry.State {
	if s.opts.Breaker == nil {
		return retry.Closed
	}
	return s.opts.Breaker.State()
}

// handleSLOHealth serves the SLO verdict. ok and degraded answer 200 —
// a degraded server is still serving — while failing answers 503 so
// load balancers and probes stop routing to it.
func (s *Server) handleSLOHealth(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	st := s.slo.evaluate(s.breakerState())
	if c := s.cluster; c != nil {
		st.Cluster = c.health()
	}
	code := http.StatusOK
	if st.Status == "failing" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}
