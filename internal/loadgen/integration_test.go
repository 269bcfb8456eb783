package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

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

var (
	intOnce sync.Once
	intPipe *core.Pipeline
	intErr  error
)

// intPipeline builds one small analysed pipeline shared by the
// integration tests (each test wraps its own Server around it).
func intPipeline(t *testing.T) *core.Pipeline {
	t.Helper()
	intOnce.Do(func() {
		simCfg := dcsim.DefaultConfig()
		simCfg.Duration = 48 * time.Hour
		simCfg.ResizesPerJobPerDay = 4
		trace, err := dcsim.Run(simCfg)
		if err != nil {
			intErr = err
			return
		}
		cfg := core.DefaultConfig()
		cfg.Analyze.Clusters = 4
		p, err := core.New(cfg)
		if err != nil {
			intErr = err
			return
		}
		if err := p.Profile(trace.Scenarios); err != nil {
			intErr = err
			return
		}
		if err := p.Analyze(); err != nil {
			intErr = err
			return
		}
		intPipe = p
	})
	if intErr != nil {
		t.Fatal(intErr)
	}
	return intPipe
}

func featureNames() []string {
	feats := machine.PaperFeatures()
	names := make([]string, len(feats))
	for i, f := range feats {
		names[i] = f.Name
	}
	return names
}

// prime serves one healthy request per feature so last-known-good exists
// before an outage is armed.
func prime(t *testing.T, h http.Handler) {
	t.Helper()
	for _, name := range featureNames() {
		req := httptest.NewRequest(http.MethodGet, "/api/estimate?feature="+name, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("priming %s: status %d (%s)", name, rec.Code, rec.Body.String())
		}
	}
}

// TestLoadgenAgainstServerWithOutage is the acceptance loop in unit-test
// form: a real flare-server under a concurrency limit and a store
// outage, hammered concurrently, with the client's shed and degraded
// books matching the server's counters EXACTLY.
func TestLoadgenAgainstServerWithOutage(t *testing.T) {
	p := intPipeline(t)
	s, err := server.NewWithTelemetry(p, machine.PaperFeatures(), obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}

	stOpts := store.DefaultOptions()
	stOpts.Registry = obs.NewRegistry()
	st, err := store.Open(t.TempDir(), stOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	db, err := metricdb.OpenDB(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PersistDataset(db); err != nil {
		t.Fatal(err)
	}
	s.AttachDB(db)

	clock := time.Unix(0, 0)
	s.SetResilience(server.Options{
		MaxConcurrent:   2,
		EstimateRefresh: time.Nanosecond, // every request recomputes
		Breaker: retry.NewBreaker("server.store", retry.BreakerOptions{
			Threshold: 1,
			Cooldown:  time.Second,
			Now:       func() time.Time { return clock }, // frozen: stays open
			Registry:  obs.NewRegistry(),
		}),
	})
	h := s.Handler()
	prime(t, h)

	in, err := fault.New(fault.MustParseSpec("store.wal.append=error@1"), 1, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	st.SetInjector(in)

	sched, err := BuildSchedule(ScheduleConfig{
		Seed:      99,
		Requests:  240,
		Features:  featureNames(),
		Tables:    db.TableNames(),
		Scenarios: p.Analysis().Dataset.Scenarios.Len(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), HandlerTarget(h), sched,
		Options{Workers: 8, VerifyMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cross == nil || !res.Cross.Pass {
		t.Fatalf("client/server cross-check failed: %+v", res.Cross)
	}
	if res.Totals.Shed == 0 {
		t.Error("8 workers against MaxConcurrent=2 shed nothing")
	}
	if res.Totals.Degraded == 0 {
		t.Error("store outage produced no degraded responses")
	}
	if res.Totals.Errors != 0 {
		t.Errorf("run produced %d hard errors (status map: %v)",
			res.Totals.Errors, res.Totals.Status)
	}
}

// TestLoadgenTimeoutsCrossCheck proves bounded-timeout accounting stays
// exact on both estimate routes — in particular that a timed-out batch
// counts ONCE (per client-visible 503) however many elements shared the
// deadline.
func TestLoadgenTimeoutsCrossCheck(t *testing.T) {
	p := intPipeline(t)
	s, err := server.NewWithTelemetry(p, machine.PaperFeatures(), obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := fault.New(fault.MustParseSpec("server.estimate=latency@1:5s"), 1, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	s.SetResilience(server.Options{
		RequestTimeout:  15 * time.Millisecond,
		EstimateRefresh: time.Nanosecond,
		Injector:        in,
	})

	mix, err := ParseMix("estimate:3,batch:2")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := BuildSchedule(ScheduleConfig{
		Seed:     7,
		Requests: 60,
		Mix:      mix,
		Features: featureNames(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), HandlerTarget(s.Handler()), sched,
		Options{Workers: 4, VerifyMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cross == nil || !res.Cross.Pass {
		t.Fatalf("client/server cross-check failed: %+v", res.Cross)
	}
	// Every request recomputes behind a 5s injected latency against a
	// 15ms bound: everything times out, one 503 per request. The latency
	// outlasts the whole run, so no computation finishes while a later
	// request for its key could join it and be served within its bound.
	if res.Totals.Timeouts != res.Totals.Done {
		t.Errorf("timeouts = %d, done = %d; every request should time out",
			res.Totals.Timeouts, res.Totals.Done)
	}
	if res.Totals.OK != 0 {
		t.Errorf("ok = %d, want 0", res.Totals.OK)
	}
}
