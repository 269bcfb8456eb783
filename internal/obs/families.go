package obs

import "fmt"

// Every flare_* metric family, declared once: its name, help, type,
// label keys and, for histograms, buckets. Components resolve series
// through these declarations (EstimateCache.In(reg, "hit")), never by a
// name string, so a family cannot be registered under two types or two
// help texts, and readers of a scrape name families by their .Name.
// Label values are passed in declared-key order; the rendered label
// set sorts them by key.

// HTTP serving (internal/server).
var (
	HTTPRequests = counter("flare_http_requests_total",
		"HTTP requests served by route and status code", "route", "code")
	HTTPDuration = histogram("flare_http_request_duration_seconds",
		"HTTP request latency by route", DefaultLatencyBuckets(), "route")
	Shed = counter("flare_shed_total",
		"requests shed by the concurrency limiter", "route")
	EstimateCache = counter("flare_estimate_cache_total",
		"estimate cache lookups (a hit may still wait on an in-flight computation)", "result")
	RequestTimeouts = counter("flare_request_timeouts_total",
		"estimate requests that hit RequestTimeout while waiting", "route")
	DegradedResponses = counter("flare_degraded_responses_total",
		"estimates served from last-known-good while the store is unhealthy")
	Ticks = counter("flare_ticks_total",
		"datacenter ticks folded into the pipeline")
	ClusterForward = counter("flare_cluster_forward_total",
		"estimate routing decisions by the cluster coordinator", "result")
	ClusterBatchRequests = counter("flare_cluster_batch_requests_total",
		"batch estimate requests fanned out by the coordinator")
	TraceExported = counter("flare_trace_exported_total",
		"request traces and events journaled to the export tables", "table")
	TraceExportFailures = counter("flare_trace_export_failures_total",
		"export inserts that failed after retries")
	TraceExportDropped = counter("flare_trace_export_dropped_total",
		"export records dropped because the queue was full")
)

// SLO window state (internal/server).
var (
	SLOP50 = gauge("flare_slo_p50_seconds",
		"request latency p50 over the SLO window")
	SLOP99 = gauge("flare_slo_p99_seconds",
		"request latency p99 over the SLO window")
	SLOP999 = gauge("flare_slo_p999_seconds",
		"request latency p99.9 over the SLO window")
	SLOBurn = gauge("flare_slo_error_budget_burn",
		"error-budget burn rate over the SLO window (1 = on schedule)")
	SLOErrorRate = gauge("flare_slo_error_rate",
		"5xx fraction of requests over the SLO window")
	SLOWindowRequests = gauge("flare_slo_window_requests",
		"requests observed inside the SLO window")
)

// Telemetry itself (this package). Every finished span observes its
// duration into StageDuration, labelled by span name: that is how the
// pipeline's stage timings reach /metrics without extra plumbing.
var (
	StageDuration = histogram("flare_stage_duration_seconds",
		"duration of FLARE pipeline stages and server operations by span name",
		DefaultLatencyBuckets(), "stage")
	TraceDropped = counter("flare_trace_dropped_total",
		"completed root spans evicted from the tracer's bounded ring")
	LogEvents = counter("flare_log_events_total",
		"log events emitted by level", "level")
)

// Retries and circuit breakers (internal/retry).
var (
	RetryAttempts = counter("flare_retry_attempts_total",
		"operation attempts through the retry layer", "op")
	RetryRetries = counter("flare_retry_retries_total",
		"failed attempts that were retried", "op")
	RetryGiveups = counter("flare_retry_giveups_total",
		"operations that exhausted retries or hit a permanent error", "op")
	BreakerState = gauge("flare_breaker_state",
		"circuit state (0 closed, 1 half-open, 2 open)", "breaker")
	BreakerTrips = counter("flare_breaker_trips_total",
		"closed/half-open -> open transitions", "breaker")
)

// Fault injection (internal/fault).
var FaultInjected = counter("flare_fault_injected_total",
	"faults injected by site and kind", "site", "kind")

// Profiling and replay (internal/profiler, internal/replayer).
var (
	ProfilerScenarios = counter("flare_profiler_scenarios_total",
		"scenarios measured by the profiler")
	ProfilerSamples = counter("flare_profiler_samples_total",
		"noisy per-scenario measurements taken by the profiler")
	Replays = counter("flare_replays_total",
		"representative scenario replays", "mode")
)

// Datacenter simulation, labelled by placement policy (internal/dcsim).
var (
	DCSimResizes = counter("flare_dcsim_resizes_total",
		"deployment resize events processed", "policy")
	DCSimPlacements = counter("flare_dcsim_placements_total",
		"instances placed on machines", "policy")
	DCSimEvictions = counter("flare_dcsim_evictions_total",
		"instances removed by scale-downs", "policy")
	DCSimRejections = counter("flare_dcsim_rejections_total",
		"placements denied for lack of capacity", "policy")
	DCSimTransitions = counter("flare_dcsim_transitions_total",
		"machine-state changes observed", "policy")
	DCSimMachineFailures = counter("flare_dcsim_machine_failures_total",
		"injected machine failures", "policy")
	DCSimFailedInstances = counter("flare_dcsim_failed_instances_total",
		"instances displaced by machine failures", "policy")
	DCSimReschedules = counter("flare_dcsim_reschedules_total",
		"displaced instances placed on surviving machines", "policy")
	DCSimScenarios = gauge("flare_dcsim_scenarios",
		"distinct colocation scenarios produced by the last simulation run", "policy")
)

// The durable store (internal/store).
var (
	StoreWALAppends = counter("flare_store_wal_appends_total",
		"records appended to the store's write-ahead log")
	StoreWALCommitBatches = counter("flare_store_wal_commit_batches_total",
		"group-commit batches written to the WAL (one write+fsync each)")
	StoreWALBytes = counter("flare_store_wal_bytes_total",
		"bytes written to the WAL")
	StoreWALFsync = histogram("flare_store_wal_fsync_seconds",
		"WAL fsync latency", DefaultLatencyBuckets())
	StoreFlushes = counter("flare_store_flushes_total",
		"memtable flushes to segment files")
	StoreCompactions = counter("flare_store_compactions_total",
		"segment compactions (merges)")
	StoreTornTails = counter("flare_store_torn_tails_total",
		"torn WAL tails truncated during recovery")
	StoreRecoveredRecords = counter("flare_store_recovered_records_total",
		"records replayed from the WAL during recovery")
	StoreSegmentsLive = gauge("flare_store_segments_live",
		"live segment files in the manifest")
)

// Store replication (internal/cluster).
var (
	ClusterShipEvents = counter("flare_cluster_ship_events_total",
		"Replication events streamed to followers.")
	ClusterShipBytes = counter("flare_cluster_ship_bytes_total",
		"Replication payload bytes streamed to followers.")
	ClusterShipSessions = counter("flare_cluster_ship_sessions_total",
		"Replication sessions served to followers.")
	ClusterSnapshots = counter("flare_cluster_snapshots_total",
		"Snapshot catch-ups sent to lagging followers.")
	ClusterApplyEvents = counter("flare_cluster_apply_events_total",
		"Replication events applied by this follower.")
	ClusterFollowerResyncs = counter("flare_cluster_follower_resyncs_total",
		"Times this follower discarded local state to resync from a snapshot.")
	ClusterReplLag = gauge("flare_cluster_repl_lag_events",
		"Events committed on the leader and not yet acknowledged by the follower.", "follower")
)

// desc is one family's declaration.
type desc struct {
	// Name is the exposed family name.
	Name    string
	help    string
	typ     metricType
	keys    []string // label keys, in the order In takes their values
	byKey   []int    // indices into keys, ascending by key
	buckets []float64
}

// declared is every family declared above, in declaration order.
var declared []*desc

func declare(name, help string, typ metricType, buckets []float64, keys []string) *desc {
	d := &desc{Name: name, help: help, typ: typ, keys: keys, byKey: sortedOrder(keys), buckets: buckets}
	declared = append(declared, d)
	return d
}

// series returns (registering on first use) d's series for label values
// in declared-key order, built by mk; a nil registry gets a detached mk().
func (d *desc) series(r *Registry, values []string, mk func() interface{}) interface{} {
	if len(values) != len(d.keys) {
		panic(fmt.Sprintf("obs: %s takes %d label values %q, got %d", d.Name, len(d.keys), d.keys, len(values)))
	}
	if r == nil {
		return mk()
	}
	return r.family(d.Name, d.help, d.typ).get(writeLabels(d.keys, values, d.byKey), mk)
}

// sortedOrder returns the indices of keys in ascending key order (an
// insertion sort: label sets are a few keys long).
func sortedOrder(keys []string) []int {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
		for j := i; j > 0 && keys[order[j]] < keys[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// CounterFamily declares a counter family.
type CounterFamily struct{ *desc }

func counter(name, help string, keys ...string) CounterFamily {
	return CounterFamily{declare(name, help, typeCounter, nil, keys)}
}

// In returns the counter for label values given in declared-key order,
// registering it in r on first use. It panics on a wrong value count;
// a nil r gets a detached counter.
func (f CounterFamily) In(r *Registry, values ...string) *Counter {
	return f.series(r, values, func() interface{} { return &Counter{} }).(*Counter)
}

// GaugeFamily declares a gauge family.
type GaugeFamily struct{ *desc }

func gauge(name, help string, keys ...string) GaugeFamily {
	return GaugeFamily{declare(name, help, typeGauge, nil, keys)}
}

// In returns the gauge for label values, as CounterFamily.In does.
func (f GaugeFamily) In(r *Registry, values ...string) *Gauge {
	return f.series(r, values, func() interface{} { return &Gauge{} }).(*Gauge)
}

// HistogramFamily declares a histogram family and its bucket bounds.
type HistogramFamily struct{ *desc }

func histogram(name, help string, buckets []float64, keys ...string) HistogramFamily {
	return HistogramFamily{declare(name, help, typeHistogram, buckets, keys)}
}

// In returns the histogram for label values, as CounterFamily.In does.
func (f HistogramFamily) In(r *Registry, values ...string) *Histogram {
	return f.series(r, values, func() interface{} { return NewHistogram(f.buckets) }).(*Histogram)
}
