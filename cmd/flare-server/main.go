// Command flare-server runs the FLARE pipeline once and serves its
// results and feature estimates over HTTP. The pipeline build and the
// serving node are assembled by internal/node, exactly as flare-cluster
// and flare-loadgen -inprocess assemble theirs: -seed seeds simulation,
// profiling, analysis and replay, so estimates equal `flare -seed`'s.
//
// Usage:
//
//	flare-server [-addr :8080] [-days 14] [-clusters 18] [-seed 1] [-db-dir DIR] [-quiet-requests]
//	             [-max-concurrent 64] [-request-timeout 30s] [-estimate-refresh 15m]
//	             [-fault-spec SPEC] [-fault-seed 1]
//	             [-log-level info] [-log-json] [-trace-retain 1024]
//	             [-node-id NAME -peers NAME=URL,...] [-replicas 128]
//	             [-repl-listen :9090 | -repl-follow HOST:9090]
//
// Cluster mode: -node-id plus -peers joins this server to a
// consistent-hash ring of flare-servers. Estimates are routed to the
// feature's owning shard (one hop at most; any failure falls back to
// an identical local computation), /api/estimate/batch fans a feature
// list out across the ring, and /api/health grows a "cluster" section.
// With -db-dir, -repl-listen makes this node the replication leader —
// followers connect and receive the store's WAL as it commits — while
// -repl-follow makes it a follower replicating the leader's store into
// -db-dir (the serving database is in-memory; the replica directory is
// a byte-identical standby of the leader's).
//
// Endpoints: /healthz, /api/summary, /api/representatives, /api/pcs,
// /api/scenarios[?job=DC], /api/estimate?feature=feature1[&job=DC],
// /api/plan, /api/db/tables, /api/db/query, /metrics (Prometheus text),
// /api/health (SLO verdict: ok/degraded/failing with reasons),
// /api/trace (live span trees; ?page=N pages through exported request
// history), and /debug/pprof/. The pipeline build itself runs under the
// server's tracer, so its Profile/Analyze stage timings are scrapeable
// at /metrics and inspectable at /api/trace from the first request.
//
// All process output is structured wide events (internal/obs): leveled
// key=value lines by default, one JSON object per line with -log-json.
// Each API request emits one event carrying its request id, route,
// status, and duration; -quiet-requests suppresses those per-request
// lines (warnings still print). Completed request traces and warn+
// events are exported to the metric database, so with -db-dir the
// /api/trace?page= history survives restarts; -trace-retain bounds how
// many traces are kept. Point `flare-top` at this server for a live
// operator view.
//
// With -db-dir the profiled dataset is recorded in a durable metric
// database (internal/store WAL + segments) under that directory: the
// first run journals every sample as it is stored, and a restart against
// the same directory recovers the recorded history — /api/db/query
// serves the same rows before and after. Without -db-dir the database is
// in-memory only.
//
// The server degrades gracefully under load and store failures: excess
// requests are shed with 429 + Retry-After (-max-concurrent), slow
// estimate computations answer a bounded 503 (-request-timeout), and
// when the durable store is unhealthy, previously served estimates come
// back from last-known-good flagged "degraded": true instead of erroring.
// -fault-spec/-fault-seed arm the deterministic fault injector (see
// internal/fault) for drills against exactly those paths; every site
// the spec names is armed, the build's dcsim and replay sites included.
//
// The process shuts down gracefully on SIGINT/SIGTERM: in-flight
// requests drain through http.Server.Shutdown, then the trace exporter
// is drained and the store is flushed and closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flare/internal/cluster"
	"flare/internal/node"
	"flare/internal/obs"
	"flare/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flare-server:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	addr := flag.String("addr", ":8080", "listen address")
	days := flag.Int("days", 14, "simulated collection window in days")
	clusters := flag.Int("clusters", 18, "representative count")
	seed := flag.Int64("seed", 1, "random seed")
	dbDir := flag.String("db-dir", "", "durable metric database directory (empty: in-memory only)")
	quiet := flag.Bool("quiet-requests", false, "disable per-request log events (warnings still print)")
	maxConcurrent := flag.Int("max-concurrent", 64, "in-flight /api requests before shedding with 429 (0: unlimited)")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "bound on waiting for an estimate computation (0: unbounded)")
	estRefresh := flag.Duration("estimate-refresh", 15*time.Minute, "age after which cached estimates are recomputed (0: cache forever)")
	faultSpec := flag.String("fault-spec", "",
		`inject deterministic faults, e.g. "store.wal.append=error@0.01;server.estimate=latency@0.1:2s" (see internal/fault)`)
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault schedule; equal seeds give identical schedules")
	logLevel := flag.String("log-level", "info", "minimum log severity: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit one JSON object per log line instead of key=value text")
	traceRetain := flag.Int("trace-retain", server.DefaultExportRetain,
		"exported request traces kept in the metric database before the oldest are truncated")
	nodeID := flag.String("node-id", "", "this node's name on the cluster ring (empty: single-node)")
	peersFlag := flag.String("peers", "",
		`cluster membership as comma-separated NAME=URL pairs including this node, e.g. "n0=http://h0:8080,n1=http://h1:8080"`)
	replicas := flag.Int("replicas", cluster.DefaultVirtualNodes,
		"virtual-node replicas per node on the consistent-hash ring")
	replListen := flag.String("repl-listen", "",
		"with -db-dir: lead replication, streaming the store's WAL to followers connecting here")
	replFollow := flag.String("repl-follow", "",
		"with -db-dir: follow the replication leader at this address, mirroring its store into -db-dir")
	flag.Parse()

	if *replListen != "" && *replFollow != "" {
		return errors.New("-repl-listen and -repl-follow are mutually exclusive")
	}
	if (*replListen != "" || *replFollow != "") && *dbDir == "" {
		return errors.New("replication needs -db-dir")
	}
	if (*nodeID == "") != (*peersFlag == "") {
		return errors.New("-node-id and -peers must be set together")
	}

	lv, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	logw := os.Stdout
	logger := obs.NewLogger(logw, obs.LoggerOptions{Level: lv, JSON: *logJSON, Registry: reg})

	inj, err := node.Injector(*faultSpec, *faultSeed, reg)
	if err != nil {
		return err
	}
	if inj != nil {
		logger.Info("fault injection armed",
			obs.KV("spec", *faultSpec), obs.KV("seed", *faultSeed))
	}

	// The request logger shares the process's output and feeds warn+
	// events to the exporter so they land next to their traces in the
	// metric database. -quiet-requests lifts the floor to warn, which
	// silences the per-request info events without losing problems.
	reqLevel := lv
	if *quiet && reqLevel < obs.LevelWarn {
		reqLevel = obs.LevelWarn
	}
	cfg := node.Config{
		Registry: reg,
		Injector: inj,
		Dir:      *dbDir,
		Lead:     *replListen != "",
		Resilience: server.Options{
			RequestTimeout:  *reqTimeout,
			MaxConcurrent:   *maxConcurrent,
			EstimateRefresh: *estRefresh,
		},
		TraceRetain: *traceRetain,
		Log:         logw,
		LogOptions:  obs.LoggerOptions{Level: reqLevel, JSON: *logJSON},
	}
	if *replFollow != "" {
		cfg.Follow = func(ctx context.Context) (io.ReadWriteCloser, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", *replFollow)
		}
	}
	if *nodeID != "" {
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			return err
		}
		cfg.Cluster = &server.ClusterConfig{NodeID: *nodeID, Peers: peers, VirtualNodes: *replicas}
	}

	// Open the metric database before the (slow) pipeline build so a bad
	// -db-dir fails fast. The node is closed on every exit path: on
	// shutdown that drains the trace exporter, then flushes the memtable
	// and closes the WAL so the next start recovers from segments.
	n, err := node.Open(cfg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := n.Close(); err == nil {
			err = cerr
		}
	}()
	switch {
	case cfg.Follow != nil:
		// The replica rejects direct writes, so the serving database
		// stays in-memory while the directory tracks the leader.
		logger.Info("following replication leader",
			obs.KV("leader", *replFollow), obs.KV("dir", *dbDir))
	case n.Store != nil:
		if n.Shipper != nil {
			ln, err := net.Listen("tcp", *replListen)
			if err != nil {
				return err
			}
			defer ln.Close()
			replCtx, replCancel := context.WithCancel(context.Background())
			defer replCancel()
			go acceptFollowers(replCtx, ln, n.Shipper, logger)
			logger.Info("replication leader listening", obs.KV("addr", *replListen))
		}
		logger.Info("durable metric database open",
			obs.KV("dir", *dbDir), obs.KV("segments", n.Store.Stats().Segments))
	}

	// The pipeline build runs under the same tracer the server exposes,
	// so /api/trace shows the build span tree and /metrics its timings.
	logger.Info("building pipeline", obs.KV("days", *days), obs.KV("clusters", *clusters))
	var b *node.Build
	var buildSpan *obs.Span
	if err := obs.InSpan(obs.WithTracer(context.Background(), n.Tracer()), "server.build", func(ctx context.Context, span *obs.Span) error {
		buildSpan = span
		var err error
		if b, err = node.NewBuild(ctx, *days, *clusters, *seed, inj); err != nil {
			return err
		}
		span.SetAttr("scenarios", b.Trace.Scenarios.Len())
		// The dataset is recorded once: a restart against a populated
		// -db-dir serves the journaled history instead of appending a
		// duplicate run. n.Serve reports a partial recording.
		if stored, _ := b.Pipeline.Dataset().Stored(n.DB); stored {
			logger.Info("metric database already populated; serving recorded history")
		}
		return n.Serve(ctx, b)
	}); err != nil {
		return err
	}
	if *nodeID != "" {
		logger.Info("cluster enabled", obs.KV("node", *nodeID),
			obs.KV("peers", len(cfg.Cluster.Peers)), obs.KV("vnodes", *replicas))
	}
	logger.Info("pipeline ready",
		obs.KV("scenarios", b.Trace.Scenarios.Len()),
		obs.KV("representatives", len(b.Pipeline.Representatives())),
		obs.KV("build_ms", buildSpan.Duration().Milliseconds()))

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           n.Server.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", obs.KV("addr", *addr))
		errCh <- httpSrv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case sig := <-stop:
		logger.Info("shutting down", obs.KV("signal", sig.String()))
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			return err
		}
	}
	if n.Store != nil {
		logger.Info("flushing metric store")
	}
	return nil
}

// parsePeers parses the -peers grammar: comma-separated NAME=URL pairs.
// The local node's URL may be empty ("n0=").
func parsePeers(s string) ([]server.ClusterPeer, error) {
	var peers []server.ClusterPeer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, u, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -peers entry %q: want NAME=URL", part)
		}
		peers = append(peers, server.ClusterPeer{Name: name, URL: strings.TrimRight(u, "/")})
	}
	return peers, nil
}

// acceptFollowers serves each connecting replication follower until the
// listener closes at shutdown.
func acceptFollowers(ctx context.Context, ln net.Listener, sh *cluster.Shipper, logger *obs.Logger) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			err := sh.ServeFollower(ctx, conn)
			conn.Close()
			if err != nil && !errors.Is(err, io.EOF) {
				logger.Warn("replication session ended", obs.KV("error", err.Error()))
			}
		}()
	}
}
