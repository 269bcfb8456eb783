// Command flare-top is a terminal operator view for a running
// flare-server. It polls /metrics (Prometheus text), /api/health (SLO
// verdict), and /api/trace (recent span trees) and renders a
// refreshing dashboard: request rate, latency quantiles, error-budget
// burn, estimate-cache hit rate, shedding/degradation counters, and
// the slowest recently completed spans.
//
// Usage:
//
//	flare-top [-addr http://localhost:8080] [-interval 2s] [-spans 8]
//	flare-top -peers "node-0=http://h0:8080,node-1=http://h1:8081"
//	flare-top -once [-json]
//
// With -peers, flare-top switches to the cluster view: one row per
// node (QPS, error-budget burn, ring role, replication lag) and a
// rollup line for the whole cluster. See cluster.go.
//
// -once renders a single frame and exits; with -json it emits one
// machine-readable report instead, suitable for scripting and for the
// round-trip test in this package.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"flare/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flare-top:", err)
		os.Exit(1)
	}
}

type topConfig struct {
	addr     string
	peers    string
	interval time.Duration
	spans    int
	once     bool
	jsonOut  bool
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("flare-top", flag.ContinueOnError)
	var cfg topConfig
	fs.StringVar(&cfg.addr, "addr", "http://localhost:8080", "flare-server base URL")
	fs.StringVar(&cfg.peers, "peers", "",
		`cluster view: comma-separated NAME=URL pairs, one per node`)
	fs.DurationVar(&cfg.interval, "interval", 2*time.Second, "poll interval")
	fs.IntVar(&cfg.spans, "spans", 8, "slowest recent spans to show")
	fs.BoolVar(&cfg.once, "once", false, "render one frame and exit")
	fs.BoolVar(&cfg.jsonOut, "json", false, "with -once: emit a JSON report instead of a dashboard")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.interval <= 0 {
		cfg.interval = 2 * time.Second
	}
	if cfg.spans <= 0 {
		cfg.spans = 8
	}
	if cfg.peers != "" {
		peers, err := parsePeersFlag(cfg.peers)
		if err != nil {
			return err
		}
		return runCluster(cfg, peers, out)
	}

	c := &poller{
		base: strings.TrimRight(cfg.addr, "/"),
		hc:   &http.Client{Timeout: 10 * time.Second},
	}
	var prev *sample
	for {
		cur, err := c.fetch()
		if err != nil {
			if cfg.once {
				return err
			}
			fmt.Fprintf(out, "flare-top: %v (retrying in %s)\n", err, cfg.interval)
			time.Sleep(cfg.interval)
			continue
		}
		rep := buildReport(c.base, prev, cur, cfg.spans)
		if cfg.once {
			if cfg.jsonOut {
				enc := json.NewEncoder(out)
				enc.SetIndent("", "  ")
				return enc.Encode(rep)
			}
			renderDashboard(out, rep, false)
			return nil
		}
		renderDashboard(out, rep, true)
		prev = cur
		time.Sleep(cfg.interval)
	}
}

// poller fetches one coherent sample from the three server endpoints.
type poller struct {
	base string
	hc   *http.Client
}

// sample is one poll of the server's observable state.
type sample struct {
	at      time.Time
	metrics obs.MetricSet
	health  healthReport
	code    int // HTTP status of /api/health (failing answers 503)
	spans   []spanRow
}

// healthReport mirrors the /api/health payload (internal/server's
// sloStatus); unknown fields are ignored so the two can evolve.
type healthReport struct {
	Status         string          `json:"status"`
	Reasons        []string        `json:"reasons,omitempty"`
	Breaker        string          `json:"breaker"`
	WindowSeconds  float64         `json:"window_seconds"`
	WindowRequests uint64          `json:"window_requests"`
	WindowErrors   uint64          `json:"window_errors"`
	WindowShed     uint64          `json:"window_shed"`
	ErrorRate      float64         `json:"error_rate"`
	BurnRate       float64         `json:"error_budget_burn"`
	P50Ms          float64         `json:"p50_ms"`
	P99Ms          float64         `json:"p99_ms"`
	P999Ms         float64         `json:"p999_ms"`
	Cluster        *clusterSection `json:"cluster,omitempty"`
}

// clusterSection mirrors the cluster block of /api/health on nodes
// running with clustering enabled.
type clusterSection struct {
	NodeID         string        `json:"node_id"`
	Role           string        `json:"role"`
	Peers          []peerStatus  `json:"peers,omitempty"`
	Followers      []followerLag `json:"followers,omitempty"`
	ReplAppliedSeq uint64        `json:"repl_applied_seq,omitempty"`
}

type peerStatus struct {
	Name   string `json:"name"`
	Status string `json:"status"`
}

type followerLag struct {
	Name  string `json:"name"`
	Acked uint64 `json:"acked_seq"`
	Lag   uint64 `json:"lag_events"`
}

// spanSnapshot mirrors obs.SpanSnapshot's JSON shape.
type spanSnapshot struct {
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationMs float64        `json:"duration_ms"`
	InFlight   bool           `json:"in_flight,omitempty"`
	Attrs      []attr         `json:"attrs,omitempty"`
	Children   []spanSnapshot `json:"children,omitempty"`
}

type attr struct {
	Key   string      `json:"key"`
	Value interface{} `json:"value"`
}

// spanRow is one flattened span in the slowest-spans table.
type spanRow struct {
	Name       string  `json:"name"`
	DurationMs float64 `json:"duration_ms"`
	RequestID  string  `json:"request_id,omitempty"`
	Status     string  `json:"status,omitempty"`
}

func (p *poller) fetch() (*sample, error) {
	s := &sample{at: time.Now()}

	var err error
	if s.metrics, err = p.scrape(); err != nil {
		return nil, err
	}

	body, code, err := p.get("/api/health")
	if err != nil {
		return nil, err
	}
	s.code = code
	if err := json.Unmarshal(body, &s.health); err != nil {
		return nil, fmt.Errorf("decoding /api/health: %w", err)
	}

	body, _, err = p.get("/api/trace")
	if err != nil {
		return nil, err
	}
	var roots []spanSnapshot
	if err := json.Unmarshal(body, &roots); err != nil {
		return nil, fmt.Errorf("decoding /api/trace: %w", err)
	}
	for _, r := range roots {
		flattenSpans(r, &s.spans)
	}
	return s, nil
}

// get fetches base+path. /api/health intentionally answers 503 when
// the verdict is failing, so 503 with a body is not an error here.
func (p *poller) get(path string) ([]byte, int, error) {
	resp, err := p.hc.Get(p.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("reading %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, 0, fmt.Errorf("%s: %s", path, resp.Status)
	}
	return body, resp.StatusCode, nil
}

// scrape fetches and parses /metrics.
func (p *poller) scrape() (obs.MetricSet, error) {
	body, _, err := p.get("/metrics")
	if err != nil {
		return nil, err
	}
	m, err := obs.ParseMetrics(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	return m, nil
}

func flattenSpans(s spanSnapshot, out *[]spanRow) {
	if !s.InFlight {
		row := spanRow{Name: s.Name, DurationMs: s.DurationMs}
		for _, a := range s.Attrs {
			switch a.Key {
			case "request_id":
				row.RequestID = fmt.Sprint(a.Value)
			case "status":
				row.Status = fmt.Sprint(a.Value)
			}
		}
		*out = append(*out, row)
	}
	for _, c := range s.Children {
		flattenSpans(c, out)
	}
}

// report is the assembled dashboard state; also the -once -json shape.
type report struct {
	Addr      string       `json:"addr"`
	Health    healthReport `json:"health"`
	HTTPCode  int          `json:"health_http_code"`
	QPS       float64      `json:"qps"` // delta rate between polls; 0 on the first
	Requests  float64      `json:"requests_total"`
	CacheHit  float64      `json:"cache_hit_rate"` // 0..1 over process lifetime
	Shed      float64      `json:"shed_total"`
	Degraded  float64      `json:"degraded_responses_total"`
	Timeouts  float64      `json:"request_timeouts_total"`
	TraceDrop float64      `json:"trace_dropped_total"`
	Exported  float64      `json:"trace_exported_total"`
	TopSpans  []spanRow    `json:"top_spans"`
}

func buildReport(addr string, prev, cur *sample, topN int) report {
	r := report{
		Addr:      addr,
		Health:    cur.health,
		HTTPCode:  cur.code,
		Requests:  cur.metrics.Sum(obs.HTTPRequests.Name),
		Shed:      cur.metrics.Sum(obs.Shed.Name),
		Degraded:  cur.metrics.Sum(obs.DegradedResponses.Name),
		Timeouts:  cur.metrics.Sum(obs.RequestTimeouts.Name),
		TraceDrop: cur.metrics.Sum(obs.TraceDropped.Name),
		Exported:  cur.metrics.Sum(obs.TraceExported.Name),
	}
	hits := cur.metrics.SumLabel(obs.EstimateCache.Name, "result", "hit")
	if lookups := cur.metrics.Sum(obs.EstimateCache.Name); lookups > 0 {
		r.CacheHit = hits / lookups
	}
	if prev != nil {
		if dt := cur.at.Sub(prev.at).Seconds(); dt > 0 {
			if d := r.Requests - prev.metrics.Sum(obs.HTTPRequests.Name); d > 0 {
				r.QPS = d / dt
			}
		}
	}
	rows := append([]spanRow(nil), cur.spans...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].DurationMs > rows[j].DurationMs })
	if len(rows) > topN {
		rows = rows[:topN]
	}
	r.TopSpans = rows
	return r
}

func renderDashboard(w io.Writer, r report, clear bool) {
	var b strings.Builder
	if clear {
		b.WriteString("\x1b[2J\x1b[H") // clear screen, home cursor
	}
	fmt.Fprintf(&b, "flare-top — %s\n\n", r.Addr)
	fmt.Fprintf(&b, "  health   %-9s (HTTP %d)   breaker %s\n",
		strings.ToUpper(r.Health.Status), r.HTTPCode, r.Health.Breaker)
	for _, reason := range r.Health.Reasons {
		fmt.Fprintf(&b, "           ! %s\n", reason)
	}
	fmt.Fprintf(&b, "  traffic  %.1f req/s   %d reqs in window (%.0fs)   %.0f lifetime\n",
		r.QPS, r.Health.WindowRequests, r.Health.WindowSeconds, r.Requests)
	fmt.Fprintf(&b, "  latency  p50 %s   p99 %s   p99.9 %s\n",
		fmtMs(r.Health.P50Ms), fmtMs(r.Health.P99Ms), fmtMs(r.Health.P999Ms))
	fmt.Fprintf(&b, "  budget   burn %.2fx   error rate %.3f%%   errors %d   shed %d\n",
		r.Health.BurnRate, 100*r.Health.ErrorRate, r.Health.WindowErrors, r.Health.WindowShed)
	fmt.Fprintf(&b, "  cache    %.1f%% estimate hit rate\n", 100*r.CacheHit)
	fmt.Fprintf(&b, "  pressure shed %.0f   degraded %.0f   timeouts %.0f\n",
		r.Shed, r.Degraded, r.Timeouts)
	fmt.Fprintf(&b, "  traces   exported %.0f   ring-dropped %.0f\n\n", r.Exported, r.TraceDrop)

	fmt.Fprintf(&b, "  slowest recent spans\n")
	if len(r.TopSpans) == 0 {
		fmt.Fprintf(&b, "    (none recorded yet)\n")
	}
	for _, s := range r.TopSpans {
		line := fmt.Sprintf("    %9s  %-30s", fmtMs(s.DurationMs), s.Name)
		if s.Status != "" {
			line += "  status=" + s.Status
		}
		if s.RequestID != "" {
			line += "  id=" + s.RequestID
		}
		fmt.Fprintln(&b, line)
	}
	io.WriteString(w, b.String())
}

func fmtMs(ms float64) string {
	switch {
	case ms >= 1000:
		return fmt.Sprintf("%.2fs", ms/1000)
	case ms >= 1:
		return fmt.Sprintf("%.1fms", ms)
	default:
		return fmt.Sprintf("%.2fms", ms)
	}
}
