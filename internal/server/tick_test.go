package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flare/internal/core"
	"flare/internal/dcsim"
	"flare/internal/machine"
	"flare/internal/obs"
	"flare/internal/scenario"
)

// tickPipeline builds an analysed pipeline profiled on all but the last
// hold scenarios of a 4-day trace, and returns it with the held-back
// ones. Every call builds the same pipeline, so one can serve as the
// reference of another.
func tickPipeline(t *testing.T, hold int) (*core.Pipeline, []scenario.Scenario) {
	t.Helper()
	simCfg := dcsim.DefaultConfig()
	simCfg.Duration = 4 * 24 * time.Hour
	simCfg.ResizesPerJobPerDay = 4
	trace, err := dcsim.Run(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	all := trace.Scenarios.All()
	if len(all) <= hold+2 {
		t.Fatalf("trace produced %d scenarios, need more than %d", len(all), hold+2)
	}
	set := scenario.NewSet()
	for _, sc := range all[:len(all)-hold] {
		set.Add(sc)
	}
	cfg := core.DefaultConfig()
	cfg.Analyze.Clusters = 8
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Profile(set); err != nil {
		t.Fatal(err)
	}
	if err := p.Analyze(); err != nil {
		t.Fatal(err)
	}
	return p, all[len(all)-hold:]
}

// newTickServer wraps its own pipeline (ticks change the pipeline, so the
// shared fixture cannot be used) in a server with a fresh registry and
// tracer.
func newTickServer(t *testing.T, hold int) (*Server, []scenario.Scenario) {
	t.Helper()
	p, held := tickPipeline(t, hold)
	s, err := NewWithTelemetry(p, machine.PaperFeatures(), obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, held
}

// tickOp is one tick: scenarios to fold in and IDs to re-measure.
type tickOp struct {
	scenarios []scenario.Scenario
	changed   []int
}

func (op tickOp) request() tickRequest {
	req := tickRequest{Changed: op.changed}
	for _, sc := range op.scenarios {
		req.Scenarios = append(req.Scenarios, tickScenario{Placements: sc.Placements, Observed: sc.Observed})
	}
	return req
}

// apply ticks a reference pipeline the way the server ticks its own.
func (op tickOp) apply(t *testing.T, p *core.Pipeline) {
	t.Helper()
	if _, _, err := p.TickContext(context.Background(), op.scenarios, op.changed); err != nil {
		t.Fatal(err)
	}
}

func postTick(t *testing.T, h http.Handler, body interface{}, wantStatus int, out interface{}) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/tick", &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("POST /api/tick = %d, want %d (body: %s)", rec.Code, wantStatus, rec.Body.String())
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding tick response: %v", err)
		}
	}
}

// serve performs a GET and returns the status and raw body; safe to call
// from any goroutine.
func serve(h http.Handler, path string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

// estKey is one (feature, job) estimate.
type estKey struct {
	feat machine.Feature
	job  string
}

func (k estKey) path() string {
	path := "/api/estimate?feature=" + k.feat.Name
	if k.job != "" {
		path += "&job=" + k.job
	}
	return path
}

// referenceBody is the body a server over p answers for k at p's current
// snapshot, byte for byte.
func referenceBody(t *testing.T, p *core.Pipeline, k estKey) string {
	t.Helper()
	resp := estimateResponse{Feature: k.feat.Name, Description: k.feat.Description, Job: k.job}
	if k.job == "" {
		est, err := p.EvaluateFeature(k.feat)
		if err != nil {
			t.Fatal(err)
		}
		resp.ReductionPct, resp.ScenariosReplayed = est.ReductionPct, est.ScenariosReplayed
	} else {
		est, err := p.EvaluateFeatureForJob(k.feat, k.job)
		if err != nil {
			t.Fatal(err)
		}
		resp.ReductionPct, resp.ScenariosReplayed = est.ReductionPct, est.ScenariosReplayed
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, resp)
	return rec.Body.String()
}

func TestTickEndpoint(t *testing.T) {
	s, held := newTickServer(t, 6)
	ref, _ := tickPipeline(t, 6)
	h := s.Handler()
	before := s.pipeline.Dataset().Scenarios.Len()
	key := estKey{feat: machine.PaperFeatures()[0]}

	// Warm the estimate cache so the tick has something to supersede.
	get(t, h, key.path(), http.StatusOK, nil)

	op := tickOp{scenarios: held, changed: []int{0, 3}}
	var resp tickResponse
	postTick(t, h, op.request(), http.StatusOK, &resp)

	if resp.Added != len(held) {
		t.Errorf("added = %d, want %d", resp.Added, len(held))
	}
	if resp.Remeasured != 2 {
		t.Errorf("remeasured = %d, want 2", resp.Remeasured)
	}
	if resp.Scenarios != before+len(held) {
		t.Errorf("scenarios = %d, want %d", resp.Scenarios, before+len(held))
	}
	if resp.Representatives == 0 {
		t.Error("tick response reports no representatives")
	}

	// lastGood survives the tick as the store-outage fallback.
	s.mu.Lock()
	lastGood := len(s.lastGood)
	s.mu.Unlock()
	if lastGood == 0 {
		t.Error("tick dropped the last-known-good estimates")
	}

	// The serving surface reflects the grown population immediately.
	var sum summaryResponse
	get(t, h, "/api/summary", http.StatusOK, &sum)
	if sum.Scenarios != before+len(held) {
		t.Errorf("summary scenarios = %d, want %d", sum.Scenarios, before+len(held))
	}
	var scs []scenarioResponse
	get(t, h, "/api/scenarios", http.StatusOK, &scs)
	if len(scs) != before+len(held) {
		t.Errorf("scenario listing has %d entries, want %d", len(scs), before+len(held))
	}

	// The first post-tick estimate is computed afresh (a cache miss) at
	// the new epoch: it equals a reference pipeline ticked the same way.
	op.apply(t, ref)
	misses := s.Registry().Counter("flare_estimate_cache_total", "", "result", "miss")
	m0 := misses.Value()
	code, body := serve(h, key.path())
	if code != http.StatusOK {
		t.Fatalf("post-tick estimate = %d: %s", code, body)
	}
	if got := misses.Value() - m0; got != 1 {
		t.Errorf("post-tick estimate counted %d misses, want 1", got)
	}
	if want := referenceBody(t, ref, key); body != want {
		t.Errorf("post-tick estimate:\n got %s\nwant %s", body, want)
	}

	// A duplicate tick dedups onto existing IDs: nothing added, and
	// re-measurement keeps the dataset byte-identical (exactness guarantee).
	postTick(t, h, op.request(), http.StatusOK, &resp)
	if resp.Added != 0 {
		t.Errorf("duplicate tick added %d scenarios, want 0", resp.Added)
	}
}

func TestTickEndpointErrors(t *testing.T) {
	s, held := newTickServer(t, 2)
	h := s.Handler()

	req := httptest.NewRequest(http.MethodGet, "/api/tick", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /api/tick = %d, want 405", rec.Code)
	}

	// A rejected tick publishes nothing: the epoch and the population stay
	// as they were. A scenario naming an unknown job in particular must
	// never reach the append-only set — it could never be profiled.
	snap := s.pipeline.Snapshot()
	epoch, population := snap.Epoch, snap.Dataset.Scenarios.Len()
	unknownJob := tickScenario{Placements: []scenario.Placement{{Job: "no-such-job", Instances: 1}}}
	valid := tickOp{scenarios: held[:1]}.request().Scenarios
	for i, bad := range []tickRequest{
		{},
		{Scenarios: []tickScenario{{Placements: []scenario.Placement{{Job: "", Instances: 1}}}}},
		{Changed: []int{999999}},
		{Changed: []int{-1}},
		{Scenarios: []tickScenario{unknownJob}},
		{Scenarios: append(valid, unknownJob), Changed: []int{0}},
		{Scenarios: valid, Changed: []int{population}},
	} {
		postTick(t, h, bad, http.StatusBadRequest, nil)
		snap := s.pipeline.Snapshot()
		if snap.Epoch != epoch || snap.Dataset.Scenarios.Len() != population {
			t.Errorf("rejected tick %d moved epoch %d -> %d, population %d -> %d",
				i, epoch, snap.Epoch, population, snap.Dataset.Scenarios.Len())
		}
	}

	req = httptest.NewRequest(http.MethodPost, "/api/tick", bytes.NewBufferString("{not json"))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", rec.Code)
	}

	// The next valid tick succeeds and publishes the next epoch.
	var resp tickResponse
	postTick(t, h, tickOp{scenarios: held, changed: []int{0}}.request(), http.StatusOK, &resp)
	if resp.Added != len(held) || resp.Scenarios != population+len(held) {
		t.Errorf("valid tick after rejections: %+v, want %d added to %d", resp, len(held), population)
	}
	if got := s.pipeline.Snapshot().Epoch; got != epoch+1 {
		t.Errorf("epoch after valid tick = %d, want %d", got, epoch+1)
	}
}

// TestTickConcurrentWithEstimates races estimate and summary requests
// against a sequence of ticks and checks every answer against a
// reference pipeline ticked the same way. Epoch e is the analysis after
// the first e ticks. A request sent after tick i was answered, and
// answered before tick j was sent, may see any epoch from i to j; its
// body must equal the reference's at one of them, byte for byte. Under
// -race this also checks that no reader touches what a tick writes.
func TestTickConcurrentWithEstimates(t *testing.T) {
	const hold = 4
	s, held := newTickServer(t, hold)
	ref, _ := tickPipeline(t, hold)
	h := s.Handler()
	feats := machine.PaperFeatures()
	keys := []estKey{{feat: feats[0]}, {feat: feats[1]}, {feat: feats[2]}, {feat: feats[0], job: "DC"}}
	var ops []tickOp
	for i, sc := range held {
		ops = append(ops, tickOp{scenarios: []scenario.Scenario{sc}, changed: []int{i}}, tickOp{changed: []int{2*i + 1}})
	}

	type sample struct {
		key    int // index into keys; -1 for a summary
		lo, hi int // epochs the request may have seen
		body   string
	}
	var (
		sent, answered atomic.Int64
		mu             sync.Mutex
		samples        []sample
		stop           = make(chan struct{})
		wg             sync.WaitGroup
	)
	request := func(key int, path string) bool {
		lo := int(answered.Load())
		code, body := serve(h, path)
		hi := int(sent.Load())
		if code != http.StatusOK {
			t.Errorf("GET %s during ticks = %d: %s", path, code, body)
			return false
		}
		mu.Lock()
		samples = append(samples, sample{key, lo, hi, body})
		mu.Unlock()
		return true
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % len(keys)
				if !request(k, keys[k].path()) || !request(-1, "/api/summary") {
					return
				}
			}
		}(w)
	}
	halt := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer halt()
	for _, op := range ops {
		sent.Add(1)
		postTick(t, h, op.request(), http.StatusOK, nil)
		answered.Add(1)
	}
	halt()

	need := make(map[[2]int]bool) // (epoch, key)
	for _, sm := range samples {
		for e := sm.lo; e <= sm.hi && sm.key >= 0; e++ {
			need[[2]int{e, sm.key}] = true
		}
	}
	want := make(map[[2]int]string)
	population := make([]int, len(ops)+1)
	for e := range population {
		if e > 0 {
			ops[e-1].apply(t, ref)
		}
		population[e] = ref.Dataset().Scenarios.Len()
		for k, key := range keys {
			if need[[2]int{e, k}] {
				want[[2]int{e, k}] = referenceBody(t, ref, key)
			}
		}
	}
	if len(samples) == 0 {
		t.Fatal("no request completed during the ticks")
	}
	for _, sm := range samples {
		match := false
		for e := sm.lo; e <= sm.hi && !match; e++ {
			if sm.key >= 0 {
				match = sm.body == want[[2]int{e, sm.key}]
				continue
			}
			var sum summaryResponse
			match = json.Unmarshal([]byte(sm.body), &sum) == nil && sum.Scenarios == population[e]
		}
		if !match {
			what := "/api/summary"
			if sm.key >= 0 {
				what = keys[sm.key].path()
			}
			t.Errorf("%s between epochs %d and %d matches none of them: %s", what, sm.lo, sm.hi, sm.body)
		}
	}
}

// TestTickTelemetry checks that each tick and each estimate's span tree
// names the epoch it published or was computed at, and that a tick's
// profiler counters land in the registry of the server that ran it.
func TestTickTelemetry(t *testing.T) {
	s, _ := newTickServer(t, 1)
	h := s.Handler()
	base := s.pipeline.Snapshot().Epoch
	const n = 2
	for i := 0; i < n; i++ {
		postTick(t, h, tickRequest{Changed: []int{i, i + 1}}, http.StatusOK, nil)
	}
	get(t, h, "/api/estimate?feature=feature1", http.StatusOK, nil)

	var roots []obs.SpanSnapshot
	get(t, h, "/api/trace", http.StatusOK, &roots)
	epochOf := func(sp obs.SpanSnapshot) string {
		for _, a := range sp.Attrs {
			if a.Key == "epoch" {
				return fmt.Sprint(a.Value)
			}
		}
		return "none"
	}
	var ticks []string
	estimated := false
	for _, r := range roots {
		switch r.Name {
		case "http./api/tick":
			for _, c := range r.Children {
				if c.Name == "pipeline.tick" {
					ticks = append(ticks, epochOf(c))
				}
			}
		case "server.estimate":
			estimated = true
			want := fmt.Sprint(base + n)
			if got := epochOf(r); got != want {
				t.Errorf("server.estimate epoch = %s, want %s", got, want)
			}
			if len(r.Children) != 1 || r.Children[0].Name != "pipeline.evaluate" {
				t.Fatalf("server.estimate children = %+v", r.Children)
			}
			if got := epochOf(r.Children[0]); got != want {
				t.Errorf("pipeline.evaluate epoch = %s, want %s", got, want)
			}
		}
	}
	if !estimated {
		t.Error("no server.estimate root in /api/trace")
	}
	if want := []string{fmt.Sprint(base + 1), fmt.Sprint(base + 2)}; fmt.Sprint(ticks) != fmt.Sprint(want) {
		t.Errorf("pipeline.tick epochs = %v, want %v", ticks, want)
	}

	_, metrics := serve(h, "/metrics")
	if want := fmt.Sprintf("flare_profiler_scenarios_total %d\n", 2*n); !strings.Contains(metrics, want) {
		t.Errorf("/metrics missing %q", strings.TrimSpace(want))
	}
}
