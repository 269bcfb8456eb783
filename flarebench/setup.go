package main

import (
	"fmt"
	"net/http"
	"os"
	"time"

	"flare/internal/core"
	"flare/internal/dcsim"
	"flare/internal/machine"
	"flare/internal/metricdb"
	"flare/internal/obs"
	"flare/internal/scenario"
	"flare/internal/server"
	"flare/internal/store"
)

// datasetSeed fixes the datacenter trace and every pipeline seed. The
// workload seed (--seed) only shapes the traffic, so every run serves the
// same analysis and its figures stay comparable across seeds.
const datasetSeed = 1

// newTrace generates the scenario population. It is called once per
// pipeline because a tick grows the pipeline's scenario set in place.
func newTrace(days int) (*scenario.Set, error) {
	cfg := dcsim.DefaultConfig()
	cfg.Seed = datasetSeed
	cfg.Duration = time.Duration(days) * 24 * time.Hour
	tr, err := dcsim.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating trace: %w", err)
	}
	return tr.Scenarios, nil
}

func coreConfig(clusters int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Profile.Seed = datasetSeed
	cfg.Analyze.Seed = datasetSeed
	cfg.Analyze.Clusters = clusters
	return cfg
}

// newReference builds an independent in-memory pipeline with the same
// seeds as the served one: the correctness oracle.
func newReference(cfg config) (*core.Pipeline, error) {
	set, err := newTrace(cfg.Days)
	if err != nil {
		return nil, err
	}
	p, err := core.New(coreConfig(cfg.Clusters))
	if err != nil {
		return nil, err
	}
	if err := p.Profile(set); err != nil {
		return nil, err
	}
	if err := p.Analyze(); err != nil {
		return nil, err
	}
	return p, nil
}

// served is one set-up serving pipeline: its store, the registry the
// server and store report into, and the server's handler.
type served struct {
	dir      string
	st       *store.Store
	reg      *obs.Registry
	pipeline *core.Pipeline
	handler  http.Handler
}

func (s *served) close() error {
	err := s.st.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// resilience returns flare-server's production limits with the cache
// policy the workload needs: a 1ns refresh makes every finished entry
// stale, so every request computes (estimate-cold, tick-mix); 0 never
// expires an entry (estimate-hot).
//
// tick-mix computes on every request because with a cache that never
// expires one client is on a knife edge: each tick clears the cache, and
// recomputing all 27 keys takes about 40 ms of the 50 ms between ticks,
// so whether any hits follow depends on a few percent of CPU speed. Runs
// of the same code measured 700 to 14000 estimates/s that way.
func resilience(wl string) server.Options {
	opts := server.DefaultResilience()
	opts.EstimateRefresh = time.Nanosecond
	if wl == workloadHot {
		opts.EstimateRefresh = 0
	}
	return opts
}

// setUp builds one serving pipeline on a fresh store under dir and returns
// it with the seconds spent from core.New until the handler was ready.
// Trace generation and the store's open are not timed. With a non-nil
// span log each stage is recorded as a child span of "setup".
func setUp(cfg config, dir string, spans *spanLog) (*served, float64, error) {
	set, err := newTrace(cfg.Days)
	if err != nil {
		return nil, 0, err
	}
	reg := obs.NewRegistry()
	stOpts := store.DefaultOptions() // SyncWrites on: every journal commit is fsynced
	stOpts.Registry = reg
	st, err := store.Open(dir, stOpts)
	if err != nil {
		return nil, 0, err
	}
	s := &served{dir: dir, st: st, reg: reg}
	fail := func(err error) (*served, float64, error) {
		_ = s.close()
		return nil, 0, err
	}
	db, err := metricdb.OpenDB(st)
	if err != nil {
		return fail(err)
	}

	root := spans.newID()
	start := time.Now()
	stage := func(name string, fn func() error) error { return spans.timed(name, root, "", fn) }
	err = stage("core.new", func() (err error) {
		s.pipeline, err = core.New(coreConfig(cfg.Clusters))
		return err
	})
	if err == nil {
		err = stage("core.profile", func() error { return s.pipeline.Profile(set) })
	}
	if err == nil {
		err = stage("core.analyze", func() error { return s.pipeline.Analyze() })
	}
	if err == nil {
		err = stage("core.persist", func() error { return s.pipeline.PersistDataset(db) })
	}
	if err == nil {
		err = stage("server.handler", func() (err error) {
			srv, err := server.NewWithTelemetry(s.pipeline, machine.PaperFeatures(), reg, nil)
			if err != nil {
				return err
			}
			srv.AttachDB(db)
			srv.SetResilience(resilience(cfg.Workload))
			s.handler = srv.Handler()
			return nil
		})
	}
	end := time.Now()
	if err != nil {
		return fail(fmt.Errorf("set-up: %w", err))
	}
	spans.add(spanRec{ID: root, Name: "setup", Start: spans.since(start), End: spans.since(end)})
	return s, end.Sub(start).Seconds(), nil
}
