// Command flare-loadgen drives a flare-server with a deterministic,
// seeded request mix and judges the run: per-op latency quantiles from
// mergeable histograms, orderly-outcome accounting (shed / timed out /
// degraded) cross-checked EXACTLY against the server's own /metrics
// counters, and explicit assertions that turn a load run into a CI
// verdict.
//
// Two runs with the same seed against the same target shape issue
// byte-identical request schedules (-schedule-out writes the proof), so
// latency or resilience deltas between two builds are attributable to
// the builds, not the workload.
//
// The target is either a running server (-target URL) or a freshly
// built in-process instance (-inprocess N; N>1 wires an in-process
// cluster over an in-memory transport and drives node 0).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flare/internal/core"
	"flare/internal/dcsim"
	"flare/internal/fault"
	"flare/internal/loadgen"
	"flare/internal/machine"
	"flare/internal/metricdb"
	"flare/internal/obs"
	"flare/internal/server"
	"flare/internal/store"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "flare-loadgen:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run() (int, error) {
	target := flag.String("target", "", "base URL of a running flare-server, e.g. http://127.0.0.1:8080")
	inprocess := flag.Int("inprocess", 0, "instead of -target, build N in-process nodes and drive node 0 (N>1 forms a cluster)")
	days := flag.Int("days", 2, "in-process: simulated collection window in days")
	clusters := flag.Int("clusters", 6, "in-process: representative count")
	pipeSeed := flag.Int64("pipe-seed", 1, "in-process: pipeline build seed")
	faultSpec := flag.String("fault-spec", "", `in-process: fault spec armed at the server.estimate site, e.g. "server.estimate=latency@0.2:100ms"`)
	storeFaultSpec := flag.String("store-fault-spec", "", `in-process: fault spec armed on a durable store AFTER one priming estimate per feature, so store failures serve degraded from last-known-good, e.g. "store.wal.append=error@1"`)
	faultSeed := flag.Int64("fault-seed", 1, "in-process: fault schedule seed")
	maxConcurrent := flag.Int("max-concurrent", 64, "in-process: server shed threshold (0: unlimited)")
	serverTimeout := flag.Duration("server-timeout", 2*time.Second, "in-process: server-side estimate wait bound")
	estRefresh := flag.Duration("estimate-refresh", 0, "in-process: recompute cached estimates older than this (0: cache forever)")

	requests := flag.Int("requests", 1000, "schedule length")
	seed := flag.Int64("seed", 1, "workload seed; equal seeds give byte-identical schedules")
	mixFlag := flag.String("mix", "", `op mix as "op:weight,..." over estimate, batch, dbquery, tick (default `+
		loadgen.FormatMix(loadgen.DefaultMix())+`)`)
	jobsFlag := flag.String("jobs", "", "comma-separated job names for job-filtered estimates (optional)")
	workers := flag.Int("workers", 8, "concurrent request workers")
	qps := flag.Float64("qps", 0, "open-loop arrival rate; 0 runs closed-loop")
	reqTimeout := flag.Duration("timeout", 30*time.Second, "client-side per-request timeout (0: none)")

	scheduleOut := flag.String("schedule-out", "", "write the materialised schedule (one request per line) to this file")
	reportOut := flag.String("report", "", "write the JSON report to this file (default: stdout)")
	verify := flag.Bool("verify-metrics", false, "scrape /metrics before and after and cross-check client accounting exactly (requires being the only client)")

	assertP99 := flag.Duration("assert-p99", 0, "fail when overall p99 exceeds this (0: off)")
	assertErrRate := flag.Float64("assert-max-error-rate", -1, "fail when errors/issued exceeds this (negative: off)")
	assertShed := flag.Int64("assert-shed-min", -1, "fail when fewer requests were shed (negative: off)")
	assertTimeout := flag.Int64("assert-timeout-min", -1, "fail when fewer requests timed out (negative: off)")
	assertDegraded := flag.Int64("assert-degraded-min", -1, "fail when fewer degraded bodies were served (negative: off)")
	flag.Parse()

	if (*target == "") == (*inprocess == 0) {
		return 1, errors.New("exactly one of -target and -inprocess must be set")
	}
	if *inprocess > 1 && *verify {
		return 1, errors.New("-verify-metrics needs a single-node target: forwarded cluster requests count on their owner node, so one node's /metrics cannot match the client exactly")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tgt loadgen.Target
	targetName := *target
	if *inprocess > 0 {
		h, cleanup, err := buildInprocess(inprocConfig{
			nodes:          *inprocess,
			days:           *days,
			clusters:       *clusters,
			seed:           *pipeSeed,
			faultSpec:      *faultSpec,
			storeFaultSpec: *storeFaultSpec,
			faultSeed:      *faultSeed,
			maxConcurrent:  *maxConcurrent,
			timeout:        *serverTimeout,
			refresh:        *estRefresh,
		})
		if err != nil {
			return 1, err
		}
		defer cleanup()
		tgt = loadgen.HandlerTarget(h)
		targetName = fmt.Sprintf("inprocess(nodes=%d)", *inprocess)
	} else {
		if *storeFaultSpec != "" {
			return 1, errors.New("-store-fault-spec needs -inprocess (a remote server's store is not reachable from here)")
		}
		tgt = loadgen.Target{Base: *target}
	}

	mix := loadgen.DefaultMix()
	if *mixFlag != "" {
		var err error
		mix, err = loadgen.ParseMix(*mixFlag)
		if err != nil {
			return 1, err
		}
	}

	cfg, err := discover(tgt)
	if err != nil {
		return 1, fmt.Errorf("preflight against %s: %w", targetName, err)
	}
	cfg.Seed = *seed
	cfg.Requests = *requests
	cfg.Mix = mix
	cfg.Jobs = splitComma(*jobsFlag)

	sched, err := loadgen.BuildSchedule(cfg)
	if err != nil {
		return 1, err
	}
	if *scheduleOut != "" {
		f, err := os.Create(*scheduleOut)
		if err != nil {
			return 1, err
		}
		if _, err := sched.WriteTo(f); err != nil {
			f.Close()
			return 1, err
		}
		if err := f.Close(); err != nil {
			return 1, err
		}
	}

	res, err := loadgen.Run(ctx, tgt, sched, loadgen.Options{
		Workers:       *workers,
		QPS:           *qps,
		Timeout:       *reqTimeout,
		VerifyMetrics: *verify,
	})
	if err != nil {
		return 1, err
	}

	rep := loadgen.BuildReport(targetName, res, loadgen.Asserts{
		P99:          *assertP99,
		MaxErrorRate: *assertErrRate,
		ShedMin:      *assertShed,
		TimeoutMin:   *assertTimeout,
		DegradedMin:  *assertDegraded,
		CrossCheck:   *verify,
	})

	out := os.Stdout
	if *reportOut != "" {
		f, err := os.Create(*reportOut)
		if err != nil {
			return 1, err
		}
		defer f.Close()
		out = f
	}
	if err := rep.WriteJSON(out); err != nil {
		return 1, err
	}
	fmt.Fprintln(os.Stderr, rep.Summary())
	if !rep.Pass {
		return 2, errors.New("assertions failed (see report)")
	}
	return 0, nil
}

// discover fills the target-shape half of a ScheduleConfig from the
// server's own description of itself: /api/summary for features and the
// scenario population, /api/db/tables for queryable tables (absent when
// no database is attached — dbquery is then dropped from the mix).
func discover(tgt loadgen.Target) (loadgen.ScheduleConfig, error) {
	var cfg loadgen.ScheduleConfig
	var summary struct {
		Scenarios int      `json:"scenarios"`
		Features  []string `json:"features"`
	}
	if err := getJSON(tgt, "/api/summary", &summary); err != nil {
		return cfg, err
	}
	cfg.Features = summary.Features
	cfg.Scenarios = summary.Scenarios
	var tables []struct {
		Name string `json:"name"`
	}
	if err := getJSON(tgt, "/api/db/tables", &tables); err == nil {
		for _, t := range tables {
			cfg.Tables = append(cfg.Tables, t.Name)
		}
	}
	return cfg, nil
}

func getJSON(tgt loadgen.Target, path string, out interface{}) error {
	req, err := http.NewRequest(http.MethodGet, tgt.Base+path, nil)
	if err != nil {
		return err
	}
	client := tgt.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s answered %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// inprocConfig shapes the in-process target build.
type inprocConfig struct {
	nodes          int
	days, clusters int
	seed           int64
	faultSpec      string // armed at the server.estimate site from the start
	storeFaultSpec string // armed on the durable store after priming
	faultSeed      int64
	maxConcurrent  int
	timeout        time.Duration
	refresh        time.Duration
}

// buildInprocess constructs n servers over one freshly built pipeline.
// n == 1 serves directly; n > 1 joins the nodes into a ring over an
// in-memory transport (no sockets) and returns node 0's handler.
//
// With storeFaultSpec set, the dataset lands in a durable store in a
// temporary directory and the spec is armed only AFTER one priming
// estimate per feature has journaled successfully — so last-known-good
// exists and store failures during the run serve degraded 200s instead
// of 503s. The returned cleanup closes the store and removes the
// directory.
//
// The injector and the store record into node 0's registry, the one
// whose /metrics the run scrapes.
func buildInprocess(c inprocConfig) (http.Handler, func(), error) {
	noop := func() {}
	reg0 := obs.NewRegistry()
	var inj *fault.Injector
	if c.faultSpec != "" {
		rules, err := fault.ParseSpec(c.faultSpec)
		if err != nil {
			return nil, noop, err
		}
		if inj, err = fault.New(rules, c.faultSeed, reg0); err != nil {
			return nil, noop, err
		}
	}

	simCfg := dcsim.DefaultConfig()
	simCfg.Seed = c.seed
	simCfg.Duration = time.Duration(c.days) * 24 * time.Hour
	trace, err := dcsim.Run(simCfg)
	if err != nil {
		return nil, noop, err
	}
	cfg := core.DefaultConfig()
	cfg.Profile.Seed = c.seed
	cfg.Analyze.Seed = c.seed
	cfg.Analyze.Clusters = c.clusters
	p, err := core.New(cfg)
	if err != nil {
		return nil, noop, err
	}
	if err := p.Profile(trace.Scenarios); err != nil {
		return nil, noop, err
	}
	if err := p.Analyze(); err != nil {
		return nil, noop, err
	}

	cleanup := noop
	var db *metricdb.DB
	var st *store.Store
	if c.storeFaultSpec != "" {
		dir, err := os.MkdirTemp("", "flare-loadgen-store-")
		if err != nil {
			return nil, noop, err
		}
		stOpts := store.DefaultOptions()
		stOpts.Registry = reg0
		if st, err = store.Open(dir, stOpts); err != nil {
			os.RemoveAll(dir)
			return nil, noop, err
		}
		cleanup = func() {
			st.Close()
			os.RemoveAll(dir)
		}
		if db, err = metricdb.OpenDB(st); err != nil {
			cleanup()
			return nil, noop, err
		}
	} else {
		db = metricdb.NewDB()
	}
	if err := p.PersistDataset(db); err != nil {
		cleanup()
		return nil, noop, err
	}

	transport := &memDoer{handlers: map[string]http.Handler{}}
	peers := make([]server.ClusterPeer, c.nodes)
	for i := range peers {
		name := fmt.Sprintf("node-%d", i)
		peers[i] = server.ClusterPeer{Name: name, URL: "http://" + name}
	}
	handlers := make([]http.Handler, c.nodes)
	for i := 0; i < c.nodes; i++ {
		reg := reg0
		if i > 0 {
			reg = obs.NewRegistry()
		}
		s, err := server.NewWithTelemetry(p, machine.PaperFeatures(), reg, nil)
		if err != nil {
			cleanup()
			return nil, noop, err
		}
		s.AttachDB(db)
		s.SetResilience(server.Options{
			RequestTimeout:  c.timeout,
			MaxConcurrent:   c.maxConcurrent,
			EstimateRefresh: c.refresh,
			Injector:        inj,
		})
		if c.nodes > 1 {
			if err := s.EnableCluster(server.ClusterConfig{
				NodeID: peers[i].Name,
				Peers:  peers,
				Client: transport,
			}); err != nil {
				cleanup()
				return nil, noop, err
			}
		}
		handlers[i] = s.Handler()
		transport.handlers[peers[i].Name] = handlers[i]
	}

	if c.storeFaultSpec != "" {
		if err := primeAndArmStore(handlers[0], st, c.storeFaultSpec, c.faultSeed); err != nil {
			cleanup()
			return nil, noop, err
		}
	}
	return handlers[0], cleanup, nil
}

// primeAndArmStore serves one estimate per feature through the handler
// (journaling each, so every plain-estimate key has a last-known-good)
// and only then arms the store fault spec.
func primeAndArmStore(h http.Handler, st *store.Store, spec string, seed int64) error {
	for _, feat := range machine.PaperFeatures() {
		req := httptest.NewRequest(http.MethodGet, "/api/estimate?feature="+feat.Name, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("priming estimate for %s answered %d: %s",
				feat.Name, rec.Code, rec.Body.String())
		}
	}
	rules, err := fault.ParseSpec(spec)
	if err != nil {
		return err
	}
	inj, err := fault.New(rules, seed, st.Registry())
	if err != nil {
		return err
	}
	st.SetInjector(inj)
	return nil
}

// memDoer routes peer requests to in-process handlers by URL host. The
// map is fully built before any request flows, so no locking is needed.
type memDoer struct {
	handlers map[string]http.Handler
}

func (m *memDoer) Do(req *http.Request) (*http.Response, error) {
	h := m.handlers[req.URL.Host]
	if h == nil {
		return nil, fmt.Errorf("no route to host %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

func splitComma(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
