// Package server exposes an analysed FLARE pipeline over HTTP, so
// datacenter engineers can query representatives and request feature
// estimates from dashboards or scripts. Endpoints:
//
//	GET /healthz                       liveness probe
//	GET /api/summary                   pipeline overview
//	GET /api/representatives           representative scenarios + weights
//	GET /api/pcs                       high-level metric interpretations
//	GET /api/scenarios[?job=DC]        the scenario population (optionally filtered)
//	GET /api/estimate?feature=feature1[&job=DC]   impact estimate (cached)
//	POST /api/tick                     fold a datacenter tick into the pipeline
//	GET /api/plan                      portable replay plan
//	GET /api/db/tables                 metric database tables + schemas (with AttachDB)
//	GET /api/db/query?table=samples    metric database rows (paged, filterable)
//	GET /metrics                       Prometheus text exposition
//	GET /api/trace                     recorded span trees (JSON)
//	GET /debug/pprof/                  runtime profiling
//
// All responses are JSON except /metrics and pprof. Every handler is
// wrapped in a telemetry middleware recording a latency histogram and a
// status-code counter. Estimates are memoised per (feature, job) and
// pipeline epoch; a per-key singleflight means concurrent requests for
// the same estimate share one computation while different estimates
// proceed in parallel.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flare/internal/core"
	"flare/internal/machine"
	"flare/internal/metricdb"
	"flare/internal/obs"
	"flare/internal/replayer"
)

// Server handles HTTP requests against a completed pipeline.
type Server struct {
	pipeline *core.Pipeline
	features map[string]machine.Feature
	db       *metricdb.DB // optional; set via AttachDB before Handler

	reg    *obs.Registry
	tracer *obs.Tracer

	logger   *obs.Logger    // structured wide events; nil is safe
	slo      *sloTracker    // windowed SLO state behind /api/health
	exporter *traceExporter // durable trace/event export; nil = disabled
	reqBase  string         // request-ID prefix, unique per process start
	reqSeq   atomic.Uint64  // request-ID sequence

	opts Options       // resilience settings; see SetResilience
	sem  chan struct{} // concurrency limiter; nil = unlimited

	cluster *coordinator // nil = single-node; see EnableCluster

	mu       sync.Mutex
	cache    map[string]*estimateEntry
	lastGood map[string]estimateResponse // per key, last journaled estimate
}

// NewWithTelemetry creates a server over a pipeline that has completed
// Profile and Analyze, exposing the given features for estimation. reg
// is the registry /metrics exposes and every layer below the server
// records into; it must not be nil. A nil tracer gets a fresh one
// observing into reg; passing the tracer the pipeline was built under
// makes its build spans visible at /api/trace.
func NewWithTelemetry(p *core.Pipeline, features []machine.Feature,
	reg *obs.Registry, tracer *obs.Tracer) (*Server, error) {
	if p == nil || p.Analysis() == nil {
		return nil, errors.New("server: pipeline must be analysed before serving")
	}
	if reg == nil {
		return nil, errors.New("server: a metrics registry is required")
	}
	if tracer == nil {
		tracer = obs.NewTracer(reg)
	}
	s := &Server{
		pipeline: p,
		features: make(map[string]machine.Feature, len(features)),
		reg:      reg,
		tracer:   tracer,
		reqBase:  strconv.FormatInt(time.Now().UnixMilli(), 36),
		cache:    make(map[string]*estimateEntry),
		lastGood: make(map[string]estimateResponse),
	}
	s.slo = newSLOTracker(reg)
	for _, f := range features {
		if _, dup := s.features[f.Name]; dup {
			return nil, fmt.Errorf("server: duplicate feature %q", f.Name)
		}
		s.features[f.Name] = f
	}
	s.SetResilience(Options{})
	return s, nil
}

// Registry returns the registry the server records telemetry into.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Tracer returns the tracer estimate computations record spans into.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// SetLogger installs the structured logger the middleware emits wide
// events through (and propagates to handlers via the request context).
// Call before Handler; a nil logger disables structured logging.
func (s *Server) SetLogger(l *obs.Logger) { s.logger = l }

// EventHook returns a LoggerOptions.Hook that journals every emitted
// log event into the durable events table. It is safe to install before
// EnableTraceExport is called (events are simply not exported until it
// is) and must stay cheap: it only enqueues.
func (s *Server) EventHook() func(obs.Event) {
	return func(ev obs.Event) {
		if e := s.exporter; e != nil {
			e.enqueueEvent(ev)
		}
	}
}

// EnableTraceExport starts durable wide-event export into db (creating
// the request_traces / request_events tables when absent). With a
// store-backed db the history survives restarts and /api/trace?page=N
// serves it. Call before Handler.
func (s *Server) EnableTraceExport(db *metricdb.DB, opts ExportOptions) error {
	e, err := newTraceExporter(db, s.reg, opts)
	if err != nil {
		return err
	}
	s.exporter = e
	return nil
}

// FlushTelemetry blocks until every export record enqueued so far is
// applied — tests and graceful shutdown use it to make export state
// observable.
func (s *Server) FlushTelemetry() {
	if s.exporter != nil {
		s.exporter.Flush()
	}
}

// CloseTelemetry drains and stops the exporter. The server must not
// serve traced requests afterwards.
func (s *Server) CloseTelemetry() {
	if s.exporter != nil {
		s.exporter.Close()
		s.exporter = nil
	}
}

// Handler returns the server's routing mux. Every route, including the
// pprof surface, runs behind the telemetry middleware; /api routes
// additionally run behind the concurrency limiter (when configured),
// while /healthz and /metrics stay exempt so probes and scrapes always
// get through during overload.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, h))
	}
	api := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, s.limit(pattern, h)))
	}
	route("/healthz", s.handleHealth)
	route("/api/health", s.handleSLOHealth)
	api("/api/summary", s.handleSummary)
	api("/api/representatives", s.handleRepresentatives)
	api("/api/pcs", s.handlePCs)
	api("/api/scenarios", s.handleScenarios)
	api("/api/estimate", s.handleEstimate)
	api("/api/estimate/batch", s.handleEstimateBatch)
	api("/api/tick", s.handleTick)
	api("/api/plan", s.handlePlan)
	api("/api/db/tables", s.handleDBTables)
	api("/api/db/query", s.handleDBQuery)
	route("/metrics", s.handleMetrics)
	api("/api/trace", s.handleTrace)
	route("/debug/pprof/", pprof.Index)
	route("/debug/pprof/cmdline", pprof.Cmdline)
	route("/debug/pprof/profile", pprof.Profile)
	route("/debug/pprof/symbol", pprof.Symbol)
	route("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleMetrics serves the registry in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	// Refresh the flare_slo_* gauges so every scrape (and flare-top poll)
	// sees current-window values, not the last /api/health evaluation.
	s.slo.evaluate(s.breakerState())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Write errors past this point mean a dropped connection; nothing to
	// report to the client.
	_ = s.reg.WritePrometheus(w)
}

// tracePage is one page of durable request-trace history.
type tracePage struct {
	Page     int          `json:"page"`
	PageSize int          `json:"page_size"`
	Total    int          `json:"total"`
	Traces   []traceEntry `json:"traces"`
}

// traceEntry is one exported request trace.
type traceEntry struct {
	ID          string          `json:"id"`
	Route       string          `json:"route"`
	Method      string          `json:"method"`
	Status      int             `json:"status"`
	DurationMs  float64         `json:"duration_ms"`
	StartUnixMs int64           `json:"start_unix_ms"`
	Trace       json.RawMessage `json:"trace"`
}

const (
	traceDefaultPageSize = 20
	traceMaxPageSize     = 500
)

// handleTrace serves traces. Without parameters it answers with the
// tracer's live in-memory ring (the historical behaviour). With
// ?page=N[&page_size=M] it pages through the durable request-trace
// history newest-first — which, with a store-backed database, spans
// server restarts.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	q := r.URL.Query()
	if q.Get("page") == "" {
		writeJSON(w, http.StatusOK, s.tracer.Snapshot())
		return
	}
	if s.exporter == nil {
		writeError(w, http.StatusNotFound, "trace export not enabled (start flare-server with -db-dir)")
		return
	}
	page, err := intParam(q.Get("page"), 0)
	if err != nil || page < 0 {
		writeError(w, http.StatusBadRequest, "bad page %q", q.Get("page"))
		return
	}
	size, err := intParam(q.Get("page_size"), traceDefaultPageSize)
	if err != nil || size <= 0 {
		writeError(w, http.StatusBadRequest, "bad page_size %q", q.Get("page_size"))
		return
	}
	if size > traceMaxPageSize {
		size = traceMaxPageSize
	}
	rows := s.exporter.traces.Select(nil) // insertion order: oldest first
	resp := tracePage{Page: page, PageSize: size, Total: len(rows), Traces: make([]traceEntry, 0, size)}
	// Page 0 is the newest traces: walk the rows backwards.
	start := len(rows) - 1 - page*size
	for i := start; i >= 0 && i > start-size; i-- {
		row := rows[i]
		entry := traceEntry{
			ID:          row[0].S,
			Route:       row[1].S,
			Method:      row[2].S,
			Status:      int(row[3].I),
			DurationMs:  row[4].F,
			StartUnixMs: row[5].I,
			Trace:       json.RawMessage(row[6].S),
		}
		if !json.Valid(entry.Trace) {
			entry.Trace = json.RawMessage(`{}`)
		}
		resp.Traces = append(resp.Traces, entry)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePlan serves the portable replay plan (representatives + weights +
// fallbacks) for downstream testbeds.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	plan, err := replayer.NewPlan(s.pipeline.Analysis(), s.pipeline.Machine().Shape)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "building plan: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, plan)
}

// writeBody emits an already-encoded JSON response.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeJSON emits a JSON response.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header cannot be reported to the client;
	// the connection will just break.
	_ = json.NewEncoder(w).Encode(v)
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// errorBody is msg's error response as writeJSON would emit it.
func errorBody(msg string) []byte {
	b, _ := json.Marshal(errorResponse{Error: msg}) // a lone string field always encodes
	return append(b, '\n')
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeBody(w, status, errorBody(fmt.Sprintf(format, args...)))
}

// requireGet guards non-GET methods.
func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return false
	}
	return true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// summaryResponse describes the analysed pipeline.
type summaryResponse struct {
	Scenarios       int      `json:"scenarios"`
	RawMetrics      int      `json:"raw_metrics"`
	RefinedMetrics  int      `json:"refined_metrics"`
	PrincipalComps  int      `json:"principal_components"`
	Clusters        int      `json:"clusters"`
	MachineShape    string   `json:"machine_shape"`
	Features        []string `json:"features"`
	Representatives int      `json:"representatives"`
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	names := make([]string, 0, len(s.features))
	for name := range s.features {
		names = append(names, name)
	}
	sort.Strings(names)
	an := s.pipeline.Analysis()
	resp := summaryResponse{
		Scenarios:       an.Dataset.Scenarios.Len(),
		RawMetrics:      an.Dataset.Catalog.Len(),
		RefinedMetrics:  len(an.RefinedNames),
		PrincipalComps:  an.PCA.NumPC,
		Clusters:        an.Clustering.K,
		MachineShape:    s.pipeline.Machine().Shape.Name,
		Features:        names,
		Representatives: len(an.Representatives),
	}
	writeJSON(w, http.StatusOK, resp)
}

// representativeResponse is one representative scenario.
type representativeResponse struct {
	Cluster    int     `json:"cluster"`
	ScenarioID int     `json:"scenario_id"`
	Key        string  `json:"key"`
	WeightPct  float64 `json:"weight_pct"`
	Members    int     `json:"members"`
}

func (s *Server) handleRepresentatives(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	an := s.pipeline.Analysis()
	out := make([]representativeResponse, 0, len(an.Representatives))
	for _, rep := range an.Representatives {
		sc, err := an.Dataset.Scenarios.Get(rep.ScenarioID)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "resolving scenario %d: %v", rep.ScenarioID, err)
			return
		}
		out = append(out, representativeResponse{
			Cluster:    rep.Cluster,
			ScenarioID: rep.ScenarioID,
			Key:        sc.Key(),
			WeightPct:  100 * rep.Weight,
			Members:    len(rep.Ranked),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// pcResponse is one high-level metric interpretation.
type pcResponse struct {
	Index          int     `json:"index"`
	ExplainedPct   float64 `json:"explained_pct"`
	Interpretation string  `json:"interpretation"`
}

func (s *Server) handlePCs(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	an := s.pipeline.Analysis()
	out := make([]pcResponse, 0, len(an.Labels))
	for _, lbl := range an.Labels {
		out = append(out, pcResponse{
			Index:          lbl.Index,
			ExplainedPct:   100 * lbl.Explained,
			Interpretation: lbl.Interpretation,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// scenarioResponse is one colocation scenario.
type scenarioResponse struct {
	ID        int    `json:"id"`
	Key       string `json:"key"`
	Instances int    `json:"instances"`
	VCPUs     int    `json:"vcpus"`
	Cluster   int    `json:"cluster"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	job := r.URL.Query().Get("job")
	an := s.pipeline.Analysis()
	var out []scenarioResponse
	for _, sc := range an.Dataset.Scenarios.All() {
		if job != "" && !sc.HasJob(job) {
			continue
		}
		out = append(out, scenarioResponse{
			ID:        sc.ID,
			Key:       sc.Key(),
			Instances: sc.TotalInstances(),
			VCPUs:     sc.VCPUs(),
			Cluster:   an.Clustering.Labels[sc.ID],
		})
	}
	if job != "" && len(out) == 0 {
		writeError(w, http.StatusNotFound, "no scenario contains job %q", job)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// estimateResponse is a feature-impact estimate. Degraded marks a
// response served from the last successfully journaled estimate because
// the store is currently unhealthy.
type estimateResponse struct {
	Feature           string  `json:"feature"`
	Description       string  `json:"description"`
	Job               string  `json:"job,omitempty"`
	ReductionPct      float64 `json:"mips_reduction_pct"`
	ScenariosReplayed int     `json:"scenarios_replayed"`
	Degraded          bool    `json:"degraded,omitempty"`
}

// estimateEntry is one estimate element's outcome, as both estimate
// routes serve it. A singleflight cache slot is created by the first
// request for its key, which spawns compute; compute fixes the response
// (body bytes encoded once, status, Retry-After) before closing done, and
// every waiter then relays those bytes. Forwarded and timed-out elements
// get an uncached entry of their own. Requests for *different* keys never
// contend.
type estimateEntry struct {
	epoch      uint64        // pipeline snapshot the estimate is computed from
	done       chan struct{} // closed when compute finishes
	computedAt time.Time     // staleness reference for EstimateRefresh

	body       []byte        // the response JSON and its trailing newline
	status     int           // the response status
	errMsg     string        // set when the estimate failed
	degraded   bool          // served from last-known-good
	retryAfter time.Duration // Retry-After to send; 0 sends none
	timedOut   bool          // the request's deadline passed while waiting
	evict      bool          // entry must not stay cached (failure or degraded)
}

// succeed resolves the entry with resp, encoded once for every waiter.
func (e *estimateEntry) succeed(resp estimateResponse) {
	body, err := json.Marshal(resp)
	if err != nil {
		e.fail(http.StatusInternalServerError, err.Error())
		return
	}
	e.status, e.body, e.degraded = http.StatusOK, append(body, '\n'), resp.Degraded
}

// fail resolves the entry with an error response. Failures are never
// cached.
func (e *estimateEntry) fail(status int, msg string) {
	e.status, e.errMsg, e.body, e.evict = status, msg, errorBody(msg), true
}

// compute runs the estimate on snap, journals it, and resolves the
// entry. It runs once per entry in its own goroutine; the entry is
// evicted here (not by waiters) so cleanup happens even when every
// waiter times out.
func (e *estimateEntry) compute(s *Server, snap *core.Snapshot, feat machine.Feature, job, key string) {
	defer close(e.done)
	defer func() {
		if e.evict {
			s.mu.Lock()
			if s.cache[key] == e {
				delete(s.cache, key)
			}
			s.mu.Unlock()
		}
	}()
	ctx := obs.WithTracer(context.Background(), s.tracer)
	ctx, span := obs.StartSpan(ctx, "server.estimate")
	defer span.End()
	span.SetAttr("feature", feat.Name)
	if job != "" {
		span.SetAttr("job", job)
	}
	span.SetAttr("epoch", snap.Epoch)

	// The store's health gates fresh estimates: while the breaker is open
	// the journal is known-bad, so skip straight to degraded service.
	if err := s.opts.Breaker.Allow(); err != nil {
		s.degrade(e, key, "store circuit open")
		return
	}
	// Injected faults on the estimate path itself (latency faults here
	// exercise RequestTimeout). A failed all-job estimate is a server
	// error; a failed per-job one names a job the analysis cannot
	// estimate, such as an LP job.
	status := http.StatusInternalServerError
	var est *replayer.Estimate
	err := s.opts.Injector.Err("server.estimate")
	switch {
	case err != nil:
	case job == "":
		est, err = snap.EvaluateFeature(ctx, feat)
	default:
		status = http.StatusBadRequest
		var je *replayer.JobEstimate
		if je, err = snap.EvaluateFeatureForJob(ctx, feat, job); err == nil {
			est = &je.Estimate
		}
	}
	if err != nil {
		e.fail(status, fmt.Sprintf("estimation failed: %v", err))
		return
	}
	resp := estimateResponse{Feature: feat.Name, Description: feat.Description, Job: job,
		ReductionPct: est.ReductionPct, ScenariosReplayed: est.ScenariosReplayed}

	// Journal the estimate; persistence failures feed the breaker and
	// degrade the response rather than erroring — an estimate the server
	// cannot audit is served from last-known-good instead.
	perr := s.persistEstimate(resp)
	s.opts.Breaker.Record(perr)
	if perr != nil {
		s.degrade(e, key, "journaling estimate failed")
		return
	}
	e.computedAt = time.Now()
	s.mu.Lock()
	s.lastGood[key] = resp
	s.mu.Unlock()
	e.succeed(resp)
}

// lookupEstimate resolves the singleflight cache slot for (feat, job),
// creating the entry and spawning its computation on the current
// pipeline snapshot on a miss, when the cached entry comes from an older
// snapshot, or when the cached result has aged past EstimateRefresh.
// Callers wait on the returned entry's done channel.
func (s *Server) lookupEstimate(feat machine.Feature, job string) *estimateEntry {
	key := feat.Name + "|" + job
	s.mu.Lock()
	snap := s.pipeline.Snapshot()
	entry, hit := s.cache[key]
	hit = hit && entry.epoch == snap.Epoch // an older snapshot's entry is a miss
	result := "miss"
	switch {
	case hit && s.opts.EstimateRefresh > 0 && entry.finished() &&
		time.Since(entry.computedAt) > s.opts.EstimateRefresh:
		// Stale: recompute. Unfinished entries are never stale — joining
		// the in-flight computation is always right.
		hit = false
		result = "stale"
	case hit:
		result = "hit"
	}
	if !hit {
		entry = &estimateEntry{epoch: snap.Epoch, done: make(chan struct{})}
		s.cache[key] = entry
		go entry.compute(s, snap, feat, job, key)
	}
	s.mu.Unlock()
	s.reg.Counter("flare_estimate_cache_total",
		"estimate cache lookups (a hit may still wait on an in-flight computation)",
		"result", result).Inc()
	return entry
}

// finished reports whether the entry's computation has resolved.
func (e *estimateEntry) finished() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// statusClientClosed records a request whose client hung up before its
// estimate resolved (nginx's 499): it is neither a success nor a server
// timeout, and nobody reads the response.
const statusClientClosed = 499

// resolveEstimate is the one resolver behind both estimate routes. It
// relays the ring owner's bytes when a peer owns feat; otherwise it looks
// up the local singleflight entry and, unless that has already finished,
// waits on it until deadline (when RequestTimeout is set) or until the
// client hangs up, which returns nil.
func (s *Server) resolveEstimate(r *http.Request, deadline time.Time,
	feat machine.Feature, job string) *estimateEntry {
	if body, ok := s.forwardEstimate(r, feat.Name, job); ok {
		return &estimateEntry{body: body, status: http.StatusOK}
	}
	e := s.lookupEstimate(feat, job)
	if e.finished() {
		return e
	}
	var expired <-chan time.Time
	if s.opts.RequestTimeout > 0 {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case <-e.done:
		return e
	case <-r.Context().Done():
		return nil
	case <-expired:
		late := &estimateEntry{timedOut: true, retryAfter: s.opts.RequestTimeout}
		late.fail(http.StatusServiceUnavailable,
			fmt.Sprintf("estimate still computing after %s; retry later", s.opts.RequestTimeout))
		return late
	}
}

// countServed records at serve time what a response reports for one
// element: a deadline timeout, a degraded estimate, and the Retry-After
// to stamp. Counting served responses, not computations, keeps the
// counters equal to what clients observe — one singleflight entry can
// answer many waiters. A forwarded element counts nothing here: its
// owner counted it.
func (s *Server) countServed(w http.ResponseWriter, route string, e *estimateEntry) {
	if e.timedOut {
		s.reg.Counter("flare_request_timeouts_total",
			"estimate requests that hit RequestTimeout while waiting",
			"route", route).Inc()
	}
	if e.degraded {
		s.reg.Counter("flare_degraded_responses_total",
			"estimates served from last-known-good while the store is unhealthy").Inc()
	}
	if e.retryAfter > 0 {
		retryAfterHeader(w, e.retryAfter)
	}
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	q := r.URL.Query()
	featName := q.Get("feature")
	if featName == "" {
		writeError(w, http.StatusBadRequest, "missing feature parameter")
		return
	}
	feat, ok := s.features[featName]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown feature %q", featName)
		return
	}
	e := s.resolveEstimate(r, time.Now().Add(s.opts.RequestTimeout), feat, q.Get("job"))
	if e == nil {
		w.WriteHeader(statusClientClosed)
		return
	}
	s.countServed(w, "/api/estimate", e)
	writeBody(w, e.status, e.body)
}
