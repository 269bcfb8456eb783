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
// cluster over an in-memory transport and drives node 0). In-process
// nodes are assembled by internal/node, exactly as flare-cluster
// assembles its nodes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"flare/internal/loadgen"
	"flare/internal/machine"
	"flare/internal/node"
	"flare/internal/obs"
	"flare/internal/server"
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
	faultSpec := flag.String("fault-spec", "", `in-process: fault spec armed from the start at every site it names, e.g. "server.estimate=latency@0.2:100ms"`)
	storeFaultSpec := flag.String("store-fault-spec", "", `in-process: fault spec armed on a durable store AFTER one priming estimate per feature, so store failures serve degraded from last-known-good, e.g. "store.wal.append=error@1"`)
	faultSeed := flag.Int64("fault-seed", 1, "in-process: fault schedule seed; node i uses fault-seed+i")
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
		var closeNodes func()
		var err error
		tgt, closeNodes, err = startInprocess(*inprocess, *days, *clusters, *pipeSeed, server.Options{
			RequestTimeout:  *serverTimeout,
			MaxConcurrent:   *maxConcurrent,
			EstimateRefresh: *estRefresh,
		}, *faultSpec, *storeFaultSpec, *faultSeed)
		if err != nil {
			return 1, err
		}
		defer closeNodes()
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

// startInprocess serves one freshly built pipeline from count
// in-process nodes, assembled exactly as flare-cluster assembles its
// nodes but joined over an in-memory transport (no sockets), and
// returns node 0 as the target. Node i records into its own registry
// and draws its faults from faultSeed+i.
//
// With storeFaultSpec set, every node journals into a durable store in
// a temporary directory and the spec is armed on those stores only
// AFTER one priming estimate per feature has journaled successfully —
// so last-known-good exists and store failures during the run serve
// degraded 200s instead of 503s. The returned cleanup closes the nodes
// and removes the directory.
func startInprocess(count, days, clusters int, seed int64, res server.Options,
	faultSpec, storeFaultSpec string, faultSeed int64) (loadgen.Target, func(), error) {
	var dir string
	var nodes []*node.Node
	cleanup := func() {
		for i := len(nodes) - 1; i >= 0; i-- {
			nodes[i].Close()
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
	fail := func(err error) (loadgen.Target, func(), error) {
		cleanup()
		return loadgen.Target{}, func() {}, err
	}
	if storeFaultSpec != "" {
		var err error
		if dir, err = os.MkdirTemp("", "flare-loadgen-store-"); err != nil {
			return fail(err)
		}
	}

	transport := loadgen.Transport{}
	peers := make([]server.ClusterPeer, count)
	for i := range peers {
		name := fmt.Sprintf("node-%d", i)
		peers[i] = server.ClusterPeer{Name: name, URL: "http://" + name}
	}
	var b *node.Build
	for i := range peers {
		reg := obs.NewRegistry()
		inj, err := node.Injector(faultSpec, faultSeed+int64(i), reg)
		if err != nil {
			return fail(err)
		}
		if b == nil {
			if b, err = node.NewBuild(context.Background(), days, clusters, seed, inj); err != nil {
				return fail(err)
			}
		}
		cfg := node.Config{Registry: reg, Injector: inj, Resilience: res}
		if dir != "" {
			cfg.Dir = filepath.Join(dir, peers[i].Name)
		}
		if count > 1 {
			cfg.Cluster = &server.ClusterConfig{NodeID: peers[i].Name, Peers: peers, Client: transport}
		}
		n, err := node.Open(cfg)
		if err != nil {
			return fail(err)
		}
		nodes = append(nodes, n)
		if err := n.Serve(context.Background(), b); err != nil {
			return fail(err)
		}
		transport[peers[i].Name] = n.Server.Handler()
	}
	tgt := loadgen.Target{Base: peers[0].URL, Client: transport}

	if storeFaultSpec != "" {
		// One estimate per feature journals every plain-estimate key's
		// last-known-good on its owning node; only then do faults arm.
		for _, feat := range machine.PaperFeatures() {
			var est struct{}
			if err := getJSON(tgt, "/api/estimate?feature="+feat.Name, &est); err != nil {
				return fail(fmt.Errorf("priming: %w", err))
			}
		}
		for i, n := range nodes {
			inj, err := node.Injector(storeFaultSpec, faultSeed+int64(i), n.Store.Registry())
			if err != nil {
				return fail(err)
			}
			n.Store.SetInjector(inj)
		}
	}
	return tgt, cleanup, nil
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
