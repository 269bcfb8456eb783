package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"flare/internal/fault"
	"flare/internal/machine"
	"flare/internal/obs"
	"flare/internal/retry"
	"flare/internal/store"
)

// outcomeFamilies are the counter families an estimate's outcome moves.
var outcomeFamilies = []string{
	"flare_request_timeouts_total",
	"flare_degraded_responses_total",
	"flare_estimate_cache_total",
	"flare_cluster_forward_total",
}

// outcomeCounters reads every series of outcomeFamilies from the
// server's /metrics exposition, keyed by series (name plus labels).
func outcomeCounters(t *testing.T, s *Server) map[string]uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := s.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]uint64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		for _, fam := range outcomeFamilies {
			if strings.HasPrefix(line, fam) {
				v, err := strconv.ParseUint(line[sp+1:], 10, 64)
				if err != nil {
					t.Fatalf("series %q: %v", line, err)
				}
				out[line[:sp]] = v
			}
		}
	}
	return out
}

// counterDeltas is after minus before, keeping only series that moved.
func counterDeltas(before, after map[string]uint64) map[string]uint64 {
	d := map[string]uint64{}
	for k, v := range after {
		if v != before[k] {
			d[k] = v - before[k]
		}
	}
	return d
}

// waitComputations blocks until every estimate computation the server
// has started resolves, so a timed-out row leaves no goroutine running.
func waitComputations(s *Server) {
	s.mu.Lock()
	entries := make([]*estimateEntry, 0, len(s.cache))
	for _, e := range s.cache {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	for _, e := range entries {
		<-e.done
	}
}

// outcomeServer is a single-node server over the shared pipeline with a
// fresh registry, a durable store, a breaker that never opens (so every
// outage failure reads "journaling estimate failed"), and opts.
func outcomeServer(t *testing.T, opts Options) (*Server, *store.Store) {
	t.Helper()
	opts.Breaker = retry.NewBreaker("server.store",
		retry.BreakerOptions{Threshold: 1 << 20, Registry: obs.NewRegistry()})
	return resilientServer(t, opts)
}

// outcomeRoute is one way of asking for estimates.
type outcomeRoute struct {
	name  string
	batch bool
	feats []string
}

func (r outcomeRoute) path(job string) string {
	p := "/api/estimate?feature=" + r.feats[0]
	if r.batch {
		p = "/api/estimate/batch?features=" + strings.Join(r.feats, ",")
	}
	if job != "" {
		p += "&job=" + job
	}
	return p
}

// outcomeRow is one estimate outcome, pinned on every route.
type outcomeRow struct {
	name string
	job  string
	// unknown replaces the route's last feature with an unknown name.
	unknown bool
	// setup builds (and primes) the server; it returns the handler the
	// request goes to and the server whose counters are checked.
	setup func(t *testing.T, rt outcomeRoute) (http.Handler, *Server)
	// status, retryAfter: the response status and Retry-After header.
	status     int
	retryAfter string
	// errMsg is the error text; empty means a 200 estimate body.
	// requestErr marks an error about the request, which batch does not
	// attribute to a feature.
	errMsg     string
	requestErr bool
	degraded   bool
	// deltas is the expected counter movement for the route.
	deltas func(srv *Server, rt outcomeRoute) map[string]uint64
}

func cacheDeltas(result string) func(*Server, outcomeRoute) map[string]uint64 {
	return func(_ *Server, rt outcomeRoute) map[string]uint64 {
		return map[string]uint64{
			fmt.Sprintf("flare_estimate_cache_total{result=%q}", result): uint64(len(rt.feats)),
		}
	}
}

// clusterDeltas is the receiving node's movement when every remote
// owner answers (fallback false) or none does (fallback true).
func clusterDeltas(fallback bool) func(*Server, outcomeRoute) map[string]uint64 {
	return func(srv *Server, rt outcomeRoute) map[string]uint64 {
		d := map[string]uint64{}
		for _, f := range rt.feats {
			switch {
			case srv.cluster.ring.Owner(f) == srv.cluster.cfg.NodeID:
				d[`flare_cluster_forward_total{result="local_owner"}`]++
				d[`flare_estimate_cache_total{result="miss"}`]++
			case fallback:
				d[`flare_cluster_forward_total{result="fallback"}`]++
				d[`flare_estimate_cache_total{result="miss"}`]++
			default:
				d[`flare_cluster_forward_total{result="forwarded"}`]++
			}
		}
		return d
	}
}

// clusterReceiver builds a 3-node cluster and returns the node that
// does not own the route's first feature, so that feature is remote.
// With deadPeers every other node is down.
func clusterReceiver(deadPeers bool) func(*testing.T, outcomeRoute) (http.Handler, *Server) {
	return func(t *testing.T, rt outcomeRoute) (http.Handler, *Server) {
		tr, handlers, servers := testCluster(t, 3, nil)
		for i, srv := range servers {
			if srv.cluster.ring.Owner(rt.feats[0]) == nodeName(i) {
				continue
			}
			if deadPeers {
				for j := range servers {
					if j != i {
						tr.set(nodeName(j), nil)
					}
				}
			}
			return handlers[i], srv
		}
		t.Fatalf("every node owns %s", rt.feats[0])
		return nil, nil
	}
}

// TestEstimateOutcomeTable pins every estimate outcome on the single
// route, a one-element batch and a multi-feature batch: status, exact
// body bytes, Retry-After, and the outcome counters' deltas.
func TestEstimateOutcomeTable(t *testing.T) {
	p := testPipeline(t)
	var all []string
	for _, f := range machine.PaperFeatures() {
		all = append(all, f.Name)
	}
	snap := p.Snapshot()
	ref := map[string]estimateResponse{}
	for _, f := range machine.PaperFeatures() {
		est, err := snap.EvaluateFeature(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		ref[f.Name] = estimateResponse{Feature: f.Name, Description: f.Description,
			ReductionPct: est.ReductionPct, ScenariosReplayed: est.ScenariosReplayed}
	}
	_, lpErr := snap.EvaluateFeatureForJob(context.Background(), machine.PaperFeatures()[0], "mcf")
	if lpErr == nil {
		t.Fatal("per-job estimate on LP job mcf succeeded; want an error")
	}

	const timeout = 20 * time.Millisecond
	plain := func(t *testing.T, _ outcomeRoute) (http.Handler, *Server) {
		s, _ := outcomeServer(t, Options{})
		return s.Handler(), s
	}
	// lastKnownGood serves the route once, then takes the store down; every
	// request recomputes, so the next one degrades.
	lastKnownGood := func(t *testing.T, rt outcomeRoute) (http.Handler, *Server) {
		s, st := outcomeServer(t, Options{EstimateRefresh: time.Nanosecond})
		h := s.Handler()
		get(t, h, rt.path(""), http.StatusOK, nil)
		outage(t, st)
		return h, s
	}
	noHistory := func(t *testing.T, _ outcomeRoute) (http.Handler, *Server) {
		s, st := outcomeServer(t, Options{})
		outage(t, st)
		return s.Handler(), s
	}
	rows := []outcomeRow{
		{name: "computed", setup: plain, status: http.StatusOK,
			deltas: cacheDeltas("miss")},
		{name: "cache hit", status: http.StatusOK, deltas: cacheDeltas("hit"),
			setup: func(t *testing.T, rt outcomeRoute) (http.Handler, *Server) {
				h, s := plain(t, rt)
				get(t, h, rt.path(""), http.StatusOK, nil)
				return h, s
			}},
		{name: "forwarded by owner", setup: clusterReceiver(false), status: http.StatusOK,
			deltas: clusterDeltas(false)},
		{name: "dead owner local fallback", setup: clusterReceiver(true), status: http.StatusOK,
			deltas: clusterDeltas(true)},
		{name: "degraded from last-known-good", status: http.StatusOK, degraded: true,
			setup: lastKnownGood,
			deltas: func(_ *Server, rt outcomeRoute) map[string]uint64 {
				return map[string]uint64{
					`flare_estimate_cache_total{result="stale"}`: uint64(len(rt.feats)),
					`flare_degraded_responses_total`:             uint64(len(rt.feats)),
				}
			}},
		{name: "503 no history", setup: noHistory,
			status: http.StatusServiceUnavailable, retryAfter: "1",
			errMsg: "estimate temporarily unavailable: journaling estimate failed",
			deltas: cacheDeltas("miss")},
		{name: "deadline timeout", status: http.StatusServiceUnavailable, retryAfter: "1",
			errMsg: fmt.Sprintf("estimate still computing after %s; retry later", timeout),
			setup: func(t *testing.T, _ outcomeRoute) (http.Handler, *Server) {
				in, err := fault.New(fault.MustParseSpec("server.estimate=latency@1:200ms"), 1, obs.NewRegistry())
				if err != nil {
					t.Fatal(err)
				}
				s, _ := outcomeServer(t, Options{RequestTimeout: timeout, Injector: in})
				t.Cleanup(func() { waitComputations(s) })
				return s.Handler(), s
			},
			deltas: func(_ *Server, rt outcomeRoute) map[string]uint64 {
				route := "/api/estimate"
				if rt.batch {
					route = "/api/estimate/batch"
				}
				return map[string]uint64{
					`flare_estimate_cache_total{result="miss"}`:                  uint64(len(rt.feats)),
					fmt.Sprintf("flare_request_timeouts_total{route=%q}", route): 1,
				}
			}},
		{name: "unknown feature", setup: plain, unknown: true,
			status: http.StatusNotFound, errMsg: `unknown feature "nosuch"`, requestErr: true,
			deltas: func(*Server, outcomeRoute) map[string]uint64 { return map[string]uint64{} }},
		{name: "per-job on LP job", setup: plain, job: "mcf",
			status: http.StatusBadRequest, errMsg: "estimation failed: " + lpErr.Error(),
			deltas: cacheDeltas("miss")},
	}
	routes := []outcomeRoute{
		{name: "single", feats: all[:1]},
		{name: "batch of one", batch: true, feats: all[:1]},
		{name: "batch of all", batch: true, feats: all},
	}
	for _, row := range rows {
		for _, rt := range routes {
			row, rt := row, rt
			t.Run(row.name+"/"+rt.name, func(t *testing.T) {
				if row.unknown {
					rt.feats = append(append([]string(nil), rt.feats[:len(rt.feats)-1]...), "nosuch")
				}
				h, srv := row.setup(t, rt)
				before := outcomeCounters(t, srv)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, rt.path(row.job), nil))
				after := outcomeCounters(t, srv)

				if rec.Code != row.status {
					t.Errorf("status = %d, want %d (body %s)", rec.Code, row.status, rec.Body.String())
				}
				if got := rec.Header().Get("Retry-After"); got != row.retryAfter {
					t.Errorf("Retry-After = %q, want %q", got, row.retryAfter)
				}
				if got, want := rec.Body.String(), wantOutcomeBody(t, row, rt, ref); got != want {
					t.Errorf("body:\n got %q\nwant %q", got, want)
				}
				got, want := counterDeltas(before, after), row.deltas(srv, rt)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("counter deltas:\n got %v\nwant %v", got, want)
				}
			})
		}
	}
}

// wantOutcomeBody builds the exact response bytes a row's route must
// answer: writeJSON's encoding (JSON plus a newline), with batch
// elements embedded compact in request order.
func wantOutcomeBody(t *testing.T, row outcomeRow, rt outcomeRoute, ref map[string]estimateResponse) string {
	t.Helper()
	var v interface{}
	switch {
	case row.errMsg != "" && (row.requestErr || !rt.batch):
		v = errorResponse{Error: row.errMsg}
	case row.errMsg != "":
		v = errorResponse{Error: fmt.Sprintf("feature %q: %s", rt.feats[0], row.errMsg)}
	case !rt.batch:
		e := ref[rt.feats[0]]
		e.Degraded = row.degraded
		v = e
	default:
		out := batchEstimateResponse{Job: row.job}
		for _, f := range rt.feats {
			e := ref[f]
			e.Degraded = row.degraded
			b, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			out.Estimates = append(out.Estimates, b)
		}
		v = out
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// TestEstimateCancelIsNotTimeout sends an estimate whose client hangs up
// while the computation is still running. On both routes, with and
// without RequestTimeout, the handler must return at once (freeing its
// limiter slot) and must not count a server timeout.
func TestEstimateCancelIsNotTimeout(t *testing.T) {
	var all []string
	for _, f := range machine.PaperFeatures() {
		all = append(all, f.Name)
	}
	for _, rt := range []outcomeRoute{
		{name: "single", feats: all[:1]},
		{name: "batch", batch: true, feats: all},
	} {
		for _, timeout := range []time.Duration{0, 30 * time.Second} {
			rt, timeout := rt, timeout
			t.Run(fmt.Sprintf("%s/timeout=%s", rt.name, timeout), func(t *testing.T) {
				in, err := fault.New(fault.MustParseSpec("server.estimate=latency@1:500ms"), 1, obs.NewRegistry())
				if err != nil {
					t.Fatal(err)
				}
				s, _ := outcomeServer(t, Options{RequestTimeout: timeout, MaxConcurrent: 1, Injector: in})
				t.Cleanup(func() { waitComputations(s) })
				h := s.Handler()
				before := outcomeCounters(t, s)

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				rec := httptest.NewRecorder()
				served := make(chan struct{})
				go func() {
					defer close(served)
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, rt.path(""), nil).WithContext(ctx))
				}()
				// Hang up once every element's computation has started.
				for {
					s.mu.Lock()
					started := len(s.cache)
					s.mu.Unlock()
					if started == len(rt.feats) {
						break
					}
					time.Sleep(time.Millisecond)
				}
				cancel()
				select {
				case <-served:
				case <-time.After(250 * time.Millisecond):
					t.Fatal("handler still waiting on the estimate after its client hung up")
				}
				if rec.Code == http.StatusOK {
					t.Error("cancelled request answered 200")
				}
				for series, n := range counterDeltas(before, outcomeCounters(t, s)) {
					if strings.HasPrefix(series, "flare_request_timeouts_total") {
						t.Errorf("%s moved by %d on a client hang-up", series, n)
					}
				}
				next := httptest.NewRecorder()
				h.ServeHTTP(next, httptest.NewRequest(http.MethodGet, "/api/summary", nil))
				if next.Code != http.StatusOK {
					t.Errorf("next request = %d, want 200 (limiter slot still held)", next.Code)
				}
			})
		}
	}
}
