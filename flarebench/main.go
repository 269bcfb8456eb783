// Command flarebench is FLARE's estimate-serving benchmark. It builds the
// paper-scale pipeline in-process (28-day dcsim trace, 18
// representatives, store-backed metricdb with store.DefaultOptions, so
// SyncWrites is on), drives server.Handler() directly with no sockets,
// checks every reply, and prints each metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	flarebench --workload estimate-cold|estimate-hot|tick-mix --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the timed
// phase with spans and reports the per-layer metrics, timing each layer
// from outside through its public functions. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config sizes one run. main fixes the paper-scale values; the test
// shrinks them.
type config struct {
	Workload string
	Seed     int64
	Seconds  time.Duration // length of the timed phase
	Trace    bool
	Dir      string // scratch directory for stores and the trace file

	Days       int           // dcsim trace length
	Clusters   int           // representatives
	Warmup     time.Duration // untimed estimate traffic before the timed phase
	ProbeTicks int           // back-to-back ticks after the estimate workloads' timed phase
	MaxErrorPP float64       // abs_error_pp at or above this fails the run (the paper's <1% claim)

	// Traced run sizes.
	Decompose  int // requests decomposed into layers outside-in
	LayerReps  int // calls per key or representative in the layer sweeps
	JournalOps int // metricdb inserts and store appends timed
	AllocOps   int // serial requests whose allocations are counted
	ObsOps     int // obs registry and span calls timed
}

func paperConfig() config {
	return config{
		Days: 28, Clusters: 18, Warmup: 3 * time.Second,
		ProbeTicks: 480, MaxErrorPP: 1,
		Decompose: 54, LayerReps: 3, JournalOps: 200, AllocOps: 1000, ObsOps: 200000,
	}
}

// metric is one reported figure.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report is a run's outcome.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
	Lines     []string // human-readable detail, printed before the JSON
	// Fingerprint identifies the schedule the server was sent.
	Fingerprint uint64
}

func (r *report) linef(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *report) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{name, v, unit})
}

func main() {
	cfg := paperConfig()
	flag.StringVar(&cfg.Workload, "workload", "", "estimate-cold, estimate-hot or tick-mix")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed: key order, client key sets and tick IDs")
	secs := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.Dir, "dir", ".bench_build/run", "scratch directory for stores and the trace file")
	flag.Parse()
	cfg.Seconds = time.Duration(*secs) * time.Second
	cfg.Trace = *trace == 1
	if err := validate(cfg, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "flarebench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flarebench:", err)
		os.Exit(1)
	}
	if err := printReport(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "flarebench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(3)
	}
}

func validate(cfg config, trace int) error {
	known := false
	for _, w := range workloads {
		known = known || w == cfg.Workload
	}
	switch {
	case !known:
		return fmt.Errorf("unknown --workload %q (want one of %v)", cfg.Workload, workloads)
	case cfg.Seconds <= 0:
		return fmt.Errorf("--seconds must be positive")
	case trace != 0 && trace != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	return nil
}

func printReport(w io.Writer, rep *report) error {
	for _, l := range rep.Lines {
		fmt.Fprintln(w, l)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, make(map[string]value)}
	for _, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number", m.Name)
		}
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	return json.NewEncoder(w).Encode(out)
}

// prime requests every key once and returns the bodies.
func prime(h http.Handler, keys []estKey) ([][]byte, error) {
	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, k.path(), nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("priming %s: status %d: %s", k.path(), rec.Code, rec.Body.String())
		}
		bodies[i] = rec.Body.Bytes()
	}
	return bodies, nil
}

// liveHeapMB is the heap in use after a forced collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func run(cfg config) (rep *report, err error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	rep = &report{}
	var spans *spanLog
	if cfg.Trace {
		spans = newSpanLog()
	}
	clock := spans
	if clock == nil {
		clock = newSpanLog()
	}
	keys := estimateKeys()

	// One set-up per run: it is about 9 s, and up to 22 s while the disk is
	// busy, almost all of it fsyncs (see README.md); a second one would
	// take the time the timed phase needs.
	s, setupSecs, err := setUp(cfg, filepath.Join(cfg.Dir, "store"), spans)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := s.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	population := s.pipeline.Dataset().Scenarios.Len()
	sched := buildSchedule(cfg, len(keys), population)
	rep.Fingerprint = sched.fingerprint()
	rep.linef("flarebench workload=%s seed=%d seconds=%g trace=%t", cfg.Workload, cfg.Seed, cfg.Seconds.Seconds(), cfg.Trace)
	rep.linef("pipeline: %d-day dcsim trace (seed %d), %d scenarios, %d representatives; metricdb on store.DefaultOptions (SyncWrites on)",
		cfg.Days, datasetSeed, population, len(s.pipeline.Representatives()))
	rep.linef("schedule fingerprint %016x: %d closed-loop estimate client(s) over %d keys, %d ticks (open loop: %t)",
		rep.Fingerprint, len(sched.Clients), len(keys), len(sched.Ticks), sched.OpenLoop)

	primed, err := prime(s.handler, keys)
	if err != nil {
		return nil, err
	}
	absErr, problems, err := checkPrimed(cfg, keys, primed)
	if err != nil {
		return nil, err
	}
	rep.Attempted += len(keys)
	rep.Failed += len(problems)
	for _, p := range problems {
		rep.linef("MISMATCH primed estimate vs independent pipeline: %s", p)
	}

	// Warm up on the workload's own estimate traffic (tick-mix without its
	// ticks, so every reply still equals its primed body). Right after the
	// set-up's burst of fsyncs the disk and the heap take seconds to
	// settle; timing from the first request would measure that instead.
	if cfg.Warmup > 0 {
		warm := runPhase(s, schedule{Clients: sched.Clients}, keys, primed, cfg.Warmup, clock, false)
		for _, c := range warm.Clients {
			rep.Attempted += len(c.Durations)
			rep.Failed += c.Failed
		}
	}
	// The estimate workloads check every reply against its primed body;
	// tick-mix keeps replies for the epoch check.
	check := primed
	if cfg.Workload == workloadTick {
		check = nil
	}

	phases := []phaseResult{runPhase(s, sched, keys, check, cfg.Seconds, clock, false)}
	var tracedCache cacheCounts
	var tracedWAL uint64
	if cfg.Trace {
		c0, w0 := readCache(s.reg), walBatches(s.reg)
		phases = append(phases, runPhase(s, sched, keys, check, cfg.Seconds, clock, true))
		tracedCache, tracedWAL = readCache(s.reg).sub(c0), walBatches(s.reg)-w0
	}

	// End-to-end figures come from the untraced phase.
	est := summarizeEstimates(phases[0].Clients, phases[0].Elapsed)
	phaseSecs := phases[0].Elapsed.Seconds()
	wholePhase := wholePhaseLine(phases[0].Clients)
	var ops []tickOp
	var ticks []tickSample
	var errs []string
	for _, ph := range phases {
		for _, c := range ph.Clients {
			rep.Attempted += len(c.Durations)
			rep.Failed += c.Failed
			errs = append(errs, c.Errors...)
		}
		ops = append(ops, sched.Ticks[:len(ph.Ticks)]...)
		ticks = append(ticks, ph.Ticks...)
	}
	for _, e := range errs {
		rep.linef("FAILED %s", e)
	}
	if cfg.Workload == workloadTick {
		var clients []clientResult
		for _, ph := range phases {
			clients = append(clients, ph.Clients...)
		}
		ec, err := checkEpochs(cfg, keys, ops, ticks, clients)
		if err != nil {
			return nil, err
		}
		rep.Attempted += len(ticks)
		rep.Failed += ec.Mismatches + ec.TickFailed
		rep.linef("epoch check: %d estimates, %d match no epoch their request overlapped; %d of %d tick replies disagree with the reference",
			ec.Estimates, ec.Mismatches, ec.TickFailed, len(ticks))
	}
	tickMs, lateMs, tickCal := tickLatencies(phases[0].Ticks)
	var tracedP50 float64
	var tracedTicks []tickSample
	if cfg.Trace {
		for _, c := range phases[1].Clients {
			spans.add(c.Spans...)
		}
		tracedP50, tracedTicks = summarizeEstimates(phases[1].Clients, phases[1].Elapsed).P50, phases[1].Ticks
	}
	// Drop the benchmark's own buffers before measuring the heap.
	phases = nil

	heapMB := liveHeapMB()
	runtime.KeepAlive(s)

	if cfg.Workload != workloadTick {
		// Every workload reports the tick metrics: here
		// they come from an unloaded probe after the timed phase.
		probe := sendTicks(s.handler, sched.Ticks, false, time.Now(), clock)
		failed, err := checkTicks(cfg, sched.Ticks, probe)
		if err != nil {
			return nil, err
		}
		rep.Attempted += len(probe)
		rep.Failed += failed
		tickMs, lateMs, tickCal = tickLatencies(probe)
		tracedTicks = probe
		rep.linef("tick probe: %d back-to-back ticks after the timed phase, no concurrent estimates; %d disagree with the reference", len(probe), failed)
	}
	if cfg.Trace && cfg.Workload == workloadHot {
		// The probe's ticks cleared the cache. Prime it again so the layer
		// sweeps below see the hot workload's state: every request a hit.
		if _, err := prime(s.handler, keys); err != nil {
			return nil, err
		}
	}

	failedShare := ratio(float64(rep.Failed), float64(rep.Attempted))
	rep.Correct = rep.Failed == 0 && absErr < cfg.MaxErrorPP
	rep.linef("%-18s %12.4f %-6s core.New to Handler() ready, one set-up", "setup_s", setupSecs, "s")
	tickP50s, rawTickP50s := tickChunkP50s(tickMs, tickCal), tickChunkP50s(tickMs, nil)
	rep.linef("reference kernel: median burst %.3f µs over the phase; figures marked * are scaled to %.3f µs (see calib.go)",
		est.CalUs, calRefUs)
	rep.linef("%-18s %12.4f %-6s * median over %d %v windows of each window's exact p50 (unscaled %.4f); %d requests",
		"estimate_p50_ms", est.P50, "ms", len(est.WinP50s), windowLen, est.RawP50, est.N)
	rep.linef("%-18s %12.4f %-6s exact p99 of the whole phase; n=%d, %d beyond%s",
		"estimate_p99_ms", est.P99, "ms", est.N, beyond(est.N, 0.99), unsupported(beyond(est.N, 0.99)))
	rep.linef("%-18s %12.1f %-6s * median over the windows (unscaled: %d completed in %.3fs, %.1f/s)",
		"estimate_rps", est.RPS, "req/s", est.N, phaseSecs, est.RawRPS)
	rep.linef("windows, unscaled: p50 ms %s; req/s %s; scale %s",
		fmtList(est.WinP50s, "%.4f"), fmtList(est.WinRates, "%.0f"), fmtList(est.WinScales, "%.3f"))
	rep.linef("%s", wholePhase)
	rep.linef("tick latency ms: p75 %.4f, p80 %.4f, p85 %.4f, p95 %.4f, max %.4f", quantile(tickMs, 0.75), quantile(tickMs, 0.8), quantile(tickMs, 0.85), quantile(tickMs, 0.95), quantile(tickMs, 1))
	rep.linef("%-18s %12.4f %-6s * median over %d windows of %d consecutive ticks of each window's exact p50 (unscaled %.4f)",
		"tick_p50_ms", median(tickP50s), "ms", len(tickP50s), tickChunk, median(rawTickP50s))
	rep.linef("tick windows: p50 ms %s; unscaled %s", fmtList(tickP50s, "%.3f"), fmtList(rawTickP50s, "%.3f"))
	rep.linef("%s", percentileLine("tick_p90_ms", tickMs, 0.90, "ms"))
	rep.linef("%-18s %12.6f %-6s %d failed of %d attempted", "failed_share", failedShare, "ratio", rep.Failed, rep.Attempted)
	rep.linef("%-18s %12.4f %-6s max over the 3 features of |served all-job estimate - full-datacenter truth| (must stay below %g)",
		"abs_error_pp", absErr, "pp", cfg.MaxErrorPP)
	rep.linef("%-18s %12.2f %-6s heap in use after the run, after a forced GC", "live_heap_mb", heapMB, "MB")
	rep.linef("%-18s %12.4f %-6s p50 %.4f ms, max %.4f ms over %d ticks", "tick lateness", quantile(lateMs, 0.5), "ms", quantile(lateMs, 0.5), quantile(lateMs, 1), len(lateMs))

	if !cfg.Trace {
		rep.add("setup_s", setupSecs, "s")
		rep.add("estimate_p50_ms", est.P50, "ms")
		rep.add("estimate_rps", est.RPS, "req/s")
		rep.add("tick_p50_ms", median(tickP50s), "ms")
		rep.add("abs_error_pp", absErr, "pp")
		rep.add("live_heap_mb", heapMB, "MB")
		return rep, nil
	}
	// The tails are reported with the layers, without a bound: on a shared
	// 2-vCPU host their run-to-run spread exceeds any bound the benchmark
	// may set (see README.md).
	rep.add("estimate_p99_ms", est.P99, "ms")
	rep.add("tick_p90_ms", quantile(tickMs, 0.9), "ms")

	lay := layerInput{cfg: cfg, s: s, sched: sched, keys: keys, spans: spans,
		tracedCache: tracedCache, tracedWAL: tracedWAL, tracedTicks: tracedTicks,
		untracedP50: est.P50, tracedP50: tracedP50, lateMs: lateMs}
	if err := measureLayers(lay, rep); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.Dir, fmt.Sprintf("trace-%s-%d.json", cfg.Workload, cfg.Seed))
	if err := spans.writeFile(path); err != nil {
		return nil, err
	}
	rep.linef("spans written to %s", path)
	return rep, nil
}

// wholePhaseLine pools every client's estimates and describes their
// distribution over the whole phase.
func wholePhaseLine(clients []clientResult) string {
	var ms []float64
	for _, c := range clients {
		ms = append(ms, nsToMs(c.Durations)...)
	}
	return fmt.Sprintf("estimate latency ms over the whole phase: p50 %.4f, p90 %.4f, p99 %.4f, p99.9 %.4f, max %.4f",
		quantile(ms, 0.5), quantile(ms, 0.9), quantile(ms, 0.99), quantile(ms, 0.999), quantile(ms, 1))
}

// tickLatencies returns each tick's latency from its due time and how
// late the sender was, in ms, and the calibration burst after it, in ns.
func tickLatencies(ticks []tickSample) (latency, lateness, cal []float64) {
	for _, t := range ticks {
		latency = append(latency, float64(t.Done-t.Due)/1e6)
		lateness = append(lateness, float64(t.Sent-t.Due)/1e6)
		cal = append(cal, float64(t.Cal))
	}
	return latency, lateness, cal
}

// fmtList formats each value with format, space-separated.
func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
