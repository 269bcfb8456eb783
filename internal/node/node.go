// Package node assembles FLARE's serving processes. flare-server,
// flare-cluster and flare-loadgen -inprocess build their pipeline with
// NewBuild and each serving node with Open and Serve, so a seed, a
// fault spec or a store role means the same thing whichever command is
// given it, and the same seed and inputs give the same estimate bytes.
package node

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"flare/internal/cluster"
	"flare/internal/core"
	"flare/internal/dcsim"
	"flare/internal/fault"
	"flare/internal/machine"
	"flare/internal/metricdb"
	"flare/internal/obs"
	"flare/internal/retry"
	"flare/internal/server"
	"flare/internal/store"
)

// Injector arms the fault injector a -fault-spec flag describes: the
// rules of spec scheduled from seed, counting injected faults into reg.
// An empty spec arms nothing and returns nil, which every site accepts.
func Injector(spec string, seed int64, reg *obs.Registry) (*fault.Injector, error) {
	if spec == "" {
		return nil, nil
	}
	rules, err := fault.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return fault.New(rules, seed, reg)
}

// PipelineConfig is the paper's pipeline configuration seeded for one
// run: profiling, analysis and replay all draw from seed, analysis keeps
// clusters representatives, and inj is armed at the replayer's sites.
func PipelineConfig(seed int64, clusters int, inj *fault.Injector) core.Config {
	cfg := core.DefaultConfig()
	cfg.Profile.Seed = seed
	cfg.Analyze.Seed = seed
	cfg.Analyze.Clusters = clusters
	cfg.Replay.Seed = seed
	cfg.Replay.Injector = inj
	return cfg
}

// Build is an analysed pipeline and the simulation it was profiled from.
type Build struct {
	Pipeline *core.Pipeline
	Trace    *dcsim.Trace
}

// NewBuild simulates days of datacenter operation at seed, then profiles
// and analyses the scenarios it produced (traced under ctx's tracer, if
// any) with PipelineConfig(seed, clusters, inj). inj also arms dcsim's
// machine-failure site.
func NewBuild(ctx context.Context, days, clusters int, seed int64, inj *fault.Injector) (*Build, error) {
	simCfg := dcsim.DefaultConfig()
	simCfg.Seed = seed
	simCfg.Duration = time.Duration(days) * 24 * time.Hour
	simCfg.Faults = inj
	trace, err := dcsim.Run(simCfg)
	if err != nil {
		return nil, err
	}
	p, err := core.New(PipelineConfig(seed, clusters, inj))
	if err != nil {
		return nil, err
	}
	if err := p.ProfileContext(ctx, trace.Scenarios); err != nil {
		return nil, err
	}
	if err := p.AnalyzeContext(ctx); err != nil {
		return nil, err
	}
	return &Build{Pipeline: p, Trace: trace}, nil
}

// Config shapes one serving node.
type Config struct {
	// Registry receives the telemetry of every layer of the node and is
	// what its /metrics exposes. Required.
	Registry *obs.Registry
	// Injector is armed at every fault site the node owns: its store,
	// replication, estimate path and peer requests. Nil injects nothing.
	Injector *fault.Injector
	// Dir is the node's durable store directory; empty keeps the metric
	// database in memory only.
	Dir string
	// Lead makes the store at Dir a replication leader: its WAL streams
	// to followers through Shipper.
	Lead bool
	// Follow makes the node a replication follower that mirrors the
	// leader's store into Dir over the connections it dials, while it
	// serves from an in-memory database.
	Follow func(context.Context) (io.ReadWriteCloser, error)
	// Resilience is the server's load-shedding, timeout and cache
	// policy; its Injector is replaced by the node's.
	Resilience server.Options
	// TraceRetain bounds the exported request history per table
	// (<= 0: server.DefaultExportRetain).
	TraceRetain int
	// Cluster, when set, joins the node to a ring. Its Injector and
	// replication role are filled in from this Config.
	Cluster *server.ClusterConfig
	// Log, when set, receives one wide event per request, formatted per
	// LogOptions; warn+ events are also exported with the traces.
	Log        io.Writer
	LogOptions obs.LoggerOptions
}

// Node is one assembled serving node.
type Node struct {
	DB      *metricdb.DB     // store-backed over Dir unless following
	Store   *store.Store     // nil in memory or following
	Shipper *cluster.Shipper // nil unless leading
	Server  *server.Server   // nil until Serve

	cfg      Config
	tracer   *obs.Tracer
	follower *cluster.Follower
	ctx      context.Context // replication lifetime, ended by Close
	stop     context.CancelFunc
}

// Open opens the node's metric database in its store role, so a bad
// directory fails before any pipeline is built. A follower starts
// replicating at once.
func Open(cfg Config) (*Node, error) {
	if cfg.Registry == nil {
		return nil, errors.New("node: a metrics registry is required")
	}
	if cfg.Lead && cfg.Follow != nil {
		return nil, errors.New("node: a node cannot both lead and follow replication")
	}
	if (cfg.Lead || cfg.Follow != nil) && cfg.Dir == "" {
		return nil, errors.New("node: replication needs a store directory")
	}
	reg := cfg.Registry
	n := &Node{cfg: cfg, tracer: obs.NewTracer(reg)}
	n.ctx, n.stop = context.WithCancel(context.Background())
	stOpts := store.DefaultOptions()
	stOpts.Registry = reg
	switch {
	case cfg.Follow != nil:
		name := "follower"
		if cfg.Cluster != nil {
			name = cfg.Cluster.NodeID
		}
		f, err := cluster.OpenFollower(cfg.Dir, name, cluster.FollowerOptions{
			Store: stOpts, Metrics: cluster.NewMetrics(reg), Injector: cfg.Injector})
		if err != nil {
			n.stop()
			return nil, err
		}
		n.follower = f
		go f.RunLoop(n.ctx, cfg.Follow, retry.Policy{Name: "cluster.follow", Registry: reg})
		n.DB = metricdb.NewDB()
	case cfg.Dir != "":
		stOpts.Injector = cfg.Injector
		if cfg.Lead {
			n.Shipper = cluster.NewShipper(cluster.ShipperOptions{
				Metrics: cluster.NewMetrics(reg), Injector: cfg.Injector})
			stOpts.Replicate = n.Shipper.Record
		}
		st, err := store.Open(cfg.Dir, stOpts)
		if err != nil {
			n.Close()
			return nil, err
		}
		n.Store = st
		if n.Shipper != nil {
			n.Shipper.Bind(st)
		}
		if n.DB, err = metricdb.OpenDB(st); err != nil {
			n.Close()
			return nil, err
		}
	default:
		n.DB = metricdb.NewDB()
	}
	return n, nil
}

// Tracer is the tracer the node's server records into; build a pipeline
// under it to make the build's spans visible at /api/trace.
func (n *Node) Tracer() *obs.Tracer { return n.tracer }

// Serve persists b's dataset into the node's database unless it already
// holds one (traced under ctx), then assembles the server over b's
// pipeline: resilience limits, request logging, durable trace export
// and, with Config.Cluster, ring membership.
func (n *Node) Serve(ctx context.Context, b *Build) error {
	cfg, reg := n.cfg, n.cfg.Registry
	// NewBuild simulates under dcsim's default placement policy.
	b.Trace.Stats.Record(reg, dcsim.PolicyLeastUtilised, b.Trace.Scenarios.Len())
	stored, err := b.Pipeline.Dataset().Stored(n.DB)
	if err != nil {
		return fmt.Errorf("node: metric database in %q: %w", cfg.Dir, err)
	}
	if !stored {
		if err := b.Pipeline.PersistDatasetContext(ctx, n.DB); err != nil {
			return err
		}
	}
	srv, err := server.NewWithTelemetry(b.Pipeline, machine.PaperFeatures(), reg, n.tracer)
	if err != nil {
		return err
	}
	srv.AttachDB(n.DB)
	res := cfg.Resilience
	res.Injector = cfg.Injector
	srv.SetResilience(res)
	if err := srv.EnableTraceExport(n.DB, server.ExportOptions{Retain: cfg.TraceRetain}); err != nil {
		return err
	}
	n.Server = srv // Close drains the exporter from here on
	if cfg.Cluster != nil {
		ccfg := *cfg.Cluster
		ccfg.Injector = cfg.Injector
		if n.Shipper != nil {
			ccfg.Role = "leader"
			ccfg.ReplStatus = n.Shipper.Followers
		}
		if n.follower != nil {
			ccfg.Role = "follower"
			ccfg.ReplApplied = n.follower.Applied
		}
		if err := srv.EnableCluster(ccfg); err != nil {
			return err
		}
	}
	if cfg.Log != nil {
		lo := cfg.LogOptions
		lo.Registry = reg
		lo.Hook = srv.EventHook()
		srv.SetLogger(obs.NewLogger(cfg.Log, lo))
	}
	return nil
}

// Dial connects a follower to this leader over an in-process pipe: pass
// a leader's Dial as a follower's Config.Follow.
func (n *Node) Dial(ctx context.Context) (io.ReadWriteCloser, error) {
	if n.Shipper == nil {
		return nil, errors.New("node: dialled a node that does not lead replication")
	}
	leaderEnd, followerEnd := net.Pipe()
	go func() {
		_ = n.Shipper.ServeFollower(ctx, leaderEnd)
		leaderEnd.Close()
	}()
	return followerEnd, nil
}

// Close drains the trace exporter into the database, stops replication,
// and flushes and closes the store so the next start recovers from
// segments. Call it once the node has stopped serving requests.
func (n *Node) Close() error {
	if n.Server != nil {
		n.Server.CloseTelemetry()
	}
	n.stop()
	var errs []error
	if n.Shipper != nil {
		n.Shipper.Close()
	}
	if n.follower != nil {
		errs = append(errs, n.follower.Close())
	}
	if n.Store != nil {
		errs = append(errs, n.Store.Close())
	}
	return errors.Join(errs...)
}
