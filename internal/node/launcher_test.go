package node

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flare/internal/core"
	"flare/internal/dcsim"
	"flare/internal/loadgen"
	"flare/internal/machine"
	"flare/internal/metricdb"
	"flare/internal/obs"
	"flare/internal/scenario"
	"flare/internal/server"
	"flare/internal/store"
)

// These tests pin three behaviours every launcher's nodes share because
// they are assembled here: -seed reaches the replayer, every fault site
// named in -fault-spec is armed, and every node serves the profiled
// dataset from its metric database.

const testDays, testClusters = 2, 6

// get serves one GET through h.
func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

// serve opens and serves one node over b, closing it when the test ends.
func serve(t *testing.T, b *Build, cfg Config) *Node {
	t.Helper()
	n, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := n.Close(); err != nil {
			t.Error(err)
		}
	})
	if err := n.Serve(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestLauncherSeedReachesReplay: a node built at seed 2 answers the
// estimate bytes of a pipeline whose every seed is 2, configured here by
// hand rather than through PipelineConfig.
func TestLauncherSeedReachesReplay(t *testing.T) {
	const seed = 2
	b, err := NewBuild(context.Background(), testDays, testClusters, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := serve(t, b, Config{Registry: obs.NewRegistry()})

	simCfg := dcsim.DefaultConfig()
	simCfg.Seed = seed
	simCfg.Duration = testDays * 24 * time.Hour
	trace, err := dcsim.Run(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Profile.Seed, cfg.Analyze.Seed, cfg.Replay.Seed = seed, seed, seed
	cfg.Analyze.Clusters = testClusters
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Profile(trace.Scenarios); err != nil {
		t.Fatal(err)
	}
	if err := p.Analyze(); err != nil {
		t.Fatal(err)
	}

	for _, feat := range machine.PaperFeatures() {
		est, err := p.Snapshot().EvaluateFeature(context.Background(), feat)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(struct {
			Feature           string  `json:"feature"`
			Description       string  `json:"description"`
			ReductionPct      float64 `json:"mips_reduction_pct"`
			ScenariosReplayed int     `json:"scenarios_replayed"`
		}{feat.Name, feat.Description, est.ReductionPct, est.ScenariosReplayed})
		if err != nil {
			t.Fatal(err)
		}
		code, body := get(t, n.Server.Handler(), "/api/estimate?feature="+feat.Name)
		if code != http.StatusOK || body != string(want)+"\n" {
			t.Errorf("%s at seed %d: node answers %d %s, pipeline estimates %s", feat.Name, seed, code, body, want)
		}
	}
}

// TestLauncherFaultSpecArmsReplay: one injector reaches every site a
// spec names, including the build's dcsim and replay sites, so a
// replay.scenario error fails the node's estimate.
func TestLauncherFaultSpecArmsReplay(t *testing.T) {
	reg := obs.NewRegistry()
	inj, err := Injector("replay.scenario=error@1;dcsim.machine.fail=error@1", 1, reg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuild(context.Background(), testDays, testClusters, 1, inj)
	if err != nil {
		t.Fatal(err)
	}
	n := serve(t, b, Config{Registry: reg, Injector: inj})
	if code, body := get(t, n.Server.Handler(), "/api/estimate?feature=feature1"); code == http.StatusOK {
		t.Errorf("estimate with replay.scenario=error@1 answered 200: %s", body)
	}
	_, text := get(t, n.Server.Handler(), "/metrics")
	m, err := obs.ParseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{"replay.scenario", "dcsim.machine.fail"} {
		if m.SumLabel("flare_fault_injected_total", "site", site) == 0 {
			t.Errorf("/metrics counts no injected %s fault", site)
		}
	}
}

// TestLauncherClusterNodesServeDataset: every node of a 2-node
// in-process cluster lists the dataset's samples table, with and
// without a store directory (with one, node 1 follows node 0).
func TestLauncherClusterNodesServeDataset(t *testing.T) {
	b, err := NewBuild(context.Background(), testDays, testClusters, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("dir=%v", durable), func(t *testing.T) {
			dir := t.TempDir()
			transport := loadgen.Transport{}
			peers := []server.ClusterPeer{{Name: "node-0", URL: "http://node-0"}, {Name: "node-1", URL: "http://node-1"}}
			roles := []string{"single", "single"}
			if durable {
				roles = []string{"leader", "follower"}
			}
			var nodes []*Node
			for i, peer := range peers {
				cfg := Config{
					Registry:   obs.NewRegistry(),
					Resilience: server.DefaultResilience(),
					Cluster:    &server.ClusterConfig{NodeID: peer.Name, Peers: peers, Client: transport},
				}
				if durable {
					cfg.Dir = filepath.Join(dir, peer.Name)
					cfg.Lead = i == 0
					if i > 0 {
						cfg.Follow = nodes[0].Dial
					}
				}
				n := serve(t, b, cfg)
				nodes = append(nodes, n)
				transport[peer.Name] = n.Server.Handler()
			}
			for i, n := range nodes {
				code, body := get(t, n.Server.Handler(), "/api/db/tables")
				if code != http.StatusOK || !strings.Contains(body, `"name":"samples"`) {
					t.Errorf("node-%d /api/db/tables = %d %s, want the samples table", i, code, body)
				}
				if _, health := get(t, n.Server.Handler(), "/api/health"); !strings.Contains(health, `"role":"`+roles[i]+`"`) {
					t.Errorf("node-%d /api/health = %s, want role %s", i, health, roles[i])
				}
			}
		})
	}
}

// TestLauncherRestartChecksRecordedDataset: a restart on the same build
// serves the recorded history without recording it again, and a
// directory holding half the dataset (a persist killed midway) fails
// Serve with an error naming the directory.
func TestLauncherRestartChecksRecordedDataset(t *testing.T) {
	b, err := NewBuild(context.Background(), testDays, testClusters, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds := b.Pipeline.Dataset()
	wantRows := ds.Scenarios.Len() * ds.Catalog.Len()

	full := filepath.Join(t.TempDir(), "full")
	first, err := Open(Config{Registry: obs.NewRegistry(), Dir: full})
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(first.Serve(context.Background(), b), first.Close()); err != nil {
		t.Fatal(err)
	}
	n := serve(t, b, Config{Registry: obs.NewRegistry(), Dir: full})
	samples, err := n.DB.Table("samples")
	if err != nil {
		t.Fatal(err)
	}
	if samples.Len() != wantRows {
		t.Errorf("restart holds %d samples rows, want %d", samples.Len(), wantRows)
	}

	half := *ds
	half.Scenarios = scenario.NewSet()
	for id := 0; id < ds.Scenarios.Len()/2; id++ {
		sc, err := ds.Scenarios.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		half.Scenarios.Add(sc)
	}
	partial := filepath.Join(t.TempDir(), "partial")
	st, err := store.Open(partial, store.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	db, err := metricdb.OpenDB(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(half.Store(context.Background(), db), st.Close()); err != nil {
		t.Fatal(err)
	}
	m, err := Open(Config{Registry: obs.NewRegistry(), Dir: partial})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Serve(context.Background(), b); err == nil || !strings.Contains(err.Error(), partial) {
		t.Fatalf("Serve over a partial dataset = %v, want an error naming %s", err, partial)
	}
}
