// Command flare-cluster launches a sharded multi-node FLARE cluster in
// one process: N flare-servers over one deterministically built
// pipeline, joined on a consistent-hash ring, with node 0 leading
// WAL-shipping replication of the durable metric store to every other
// node.
//
// Usage:
//
//	flare-cluster [-nodes 3] [-base-port 8080] [-host 127.0.0.1]
//	              [-days 14] [-clusters 18] [-seed 1] [-dir DIR] [-replicas 128]
//	              [-fault-spec SPEC] [-fault-seed 1] [-log-level info] [-log-json]
//
// Node i serves HTTP on base-port+i. Every node answers every
// endpoint; /api/estimate is routed to the feature's ring owner and
// /api/estimate/batch fans out across the ring, so responses are
// byte-identical no matter which node is asked — including while peers
// are down, because deterministic pipelines make local fallback exact.
// With -dir, node 0 opens the durable store at DIR/node-0 and streams
// its WAL to followers replicating into DIR/node-i; follower lag is
// visible in node 0's /api/health cluster section and in flare-top
// -peers. Without -dir everything is in-memory and replication is off.
// Either way every node persists the profiled dataset into the
// database it serves at /api/db/*.
//
// Each node is assembled by internal/node, exactly as flare-server
// assembles its one node. Node i draws its faults from fault-seed+i;
// node 0's injector also arms the shared build's dcsim and replay
// sites.
//
// The process shuts down gracefully on SIGINT/SIGTERM: HTTP servers
// drain, follower loops stop, and the leader store flushes and closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"flare/internal/cluster"
	"flare/internal/fault"
	"flare/internal/node"
	"flare/internal/obs"
	"flare/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flare-cluster:", err)
		os.Exit(1)
	}
}

func run() error {
	nodes := flag.Int("nodes", 3, "cluster size")
	basePort := flag.Int("base-port", 8080, "node i serves HTTP on base-port+i")
	host := flag.String("host", "127.0.0.1", "interface the nodes bind")
	days := flag.Int("days", 14, "simulated collection window in days")
	clusters := flag.Int("clusters", 18, "representative count")
	seed := flag.Int64("seed", 1, "random seed for the shared pipeline build")
	dir := flag.String("dir", "", "durable store root; node 0 leads DIR/node-0, followers mirror into DIR/node-i (empty: in-memory)")
	replicas := flag.Int("replicas", cluster.DefaultVirtualNodes,
		"virtual-node replicas per node on the consistent-hash ring")
	faultSpec := flag.String("fault-spec", "",
		`inject deterministic faults, e.g. "cluster.peer.request=error@0.1" (see internal/fault)`)
	faultSeed := flag.Int64("fault-seed", 1, "base fault seed; node i uses fault-seed+i")
	logLevel := flag.String("log-level", "info", "minimum log severity: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit one JSON object per log line instead of key=value text")
	flag.Parse()

	if *nodes < 1 {
		return errors.New("-nodes must be at least 1")
	}
	lv, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := obs.NewLogger(os.Stdout, obs.LoggerOptions{Level: lv, JSON: *logJSON})

	// Node i records into its own registry and draws its faults from
	// fault-seed+i; node 0's injector also arms the shared build's
	// dcsim and replay sites.
	regs := make([]*obs.Registry, *nodes)
	injs := make([]*fault.Injector, *nodes)
	for i := range regs {
		regs[i] = obs.NewRegistry()
		if injs[i], err = node.Injector(*faultSpec, *faultSeed+int64(i), regs[i]); err != nil {
			return err
		}
	}

	// One pipeline build serves every node: determinism is the cluster's
	// correctness story, and the build is by far the slowest step.
	logger.Info("building shared pipeline",
		obs.KV("days", *days), obs.KV("clusters", *clusters), obs.KV("seed", *seed))
	b, err := node.NewBuild(context.Background(), *days, *clusters, *seed, injs[0])
	if err != nil {
		return err
	}
	logger.Info("pipeline ready",
		obs.KV("scenarios", b.Trace.Scenarios.Len()),
		obs.KV("representatives", len(b.Pipeline.Representatives())))

	peers := make([]server.ClusterPeer, *nodes)
	for i := range peers {
		peers[i] = server.ClusterPeer{
			Name: nodeName(i),
			URL:  fmt.Sprintf("http://%s:%d", *host, *basePort+i),
		}
	}

	var ns []*node.Node
	defer func() { // in reverse start order: followers before their leader
		for i := len(ns) - 1; i >= 0; i-- {
			if err := ns[i].Close(); err != nil {
				logger.Warn("closing node", obs.KV("node", nodeName(i)), obs.KV("error", err.Error()))
			}
		}
	}()
	var httpSrvs []*http.Server
	errCh := make(chan error, *nodes)
	for i := 0; i < *nodes; i++ {
		cfg := node.Config{
			Registry:   regs[i],
			Injector:   injs[i],
			Resilience: server.DefaultResilience(),
			Cluster:    &server.ClusterConfig{NodeID: nodeName(i), Peers: peers, VirtualNodes: *replicas},
			Log:        os.Stdout,
			LogOptions: obs.LoggerOptions{Level: lv, JSON: *logJSON},
		}
		if *dir != "" {
			// Node 0 leads the durable store; every other node mirrors it
			// over an in-process pipe.
			cfg.Dir = filepath.Join(*dir, nodeName(i))
			if i == 0 {
				cfg.Lead = true
			} else {
				cfg.Follow = ns[0].Dial
			}
		}
		n, err := node.Open(cfg)
		if err != nil {
			return err
		}
		ns = append(ns, n)
		if err := n.Serve(context.Background(), b); err != nil {
			return err
		}

		hs := &http.Server{
			Addr:              fmt.Sprintf("%s:%d", *host, *basePort+i),
			Handler:           n.Server.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		httpSrvs = append(httpSrvs, hs)
		go func(hs *http.Server, name string) {
			logger.Info("node listening", obs.KV("node", name), obs.KV("addr", hs.Addr))
			if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errCh <- fmt.Errorf("%s: %w", name, err)
			}
		}(hs, nodeName(i))
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-stop:
		logger.Info("shutting down", obs.KV("signal", sig.String()))
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range httpSrvs {
		if err := hs.Shutdown(sctx); err != nil {
			logger.Warn("shutdown", obs.KV("error", err.Error()))
		}
	}
	return nil
}

func nodeName(i int) string { return fmt.Sprintf("node-%d", i) }
