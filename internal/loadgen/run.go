// The load runner: executes a Schedule against a Target in closed or
// open loop, recording latencies into per-worker histograms (merged at
// the end — no cross-worker contention on the hot path) and classifying
// every response into the server's orderly resilience outcomes versus
// real errors.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flare/internal/obs"
)

// Doer issues one HTTP request (http.Client implements it; so does the
// in-process Transport).
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

// Target is where requests go: a base URL plus the client to reach it.
type Target struct {
	// Base is the URL prefix requests are issued against, without a
	// trailing slash (e.g. "http://127.0.0.1:8080").
	Base string
	// Client issues the requests; nil uses a pooled http.Client.
	Client Doer
}

func (t Target) client() Doer {
	if t.Client != nil {
		return t.Client
	}
	return defaultClient
}

// defaultClient pools connections across workers; MaxIdleConnsPerHost
// matters because every request hits one host.
var defaultClient = &http.Client{
	Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
	},
}

// Transport serves requests in process: each goes straight to the
// handler registered under its URL host, with no sockets. It is the
// in-memory transport both for driving a server and for the peer
// requests of an in-process cluster. Register every handler before the
// first request; the map is read without locking.
type Transport map[string]http.Handler

// memWriter is a minimal in-memory http.ResponseWriter.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.header }
func (w *memWriter) WriteHeader(c int)   { w.status = c }
func (w *memWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}

// Do serves req through the handler for its host.
func (t Transport) Do(req *http.Request) (*http.Response, error) {
	h := t[req.URL.Host]
	if h == nil {
		return nil, fmt.Errorf("loadgen: no in-process handler for host %q", req.URL.Host)
	}
	w := &memWriter{header: make(http.Header)}
	h.ServeHTTP(w, req)
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return &http.Response{
		StatusCode: w.status,
		Header:     w.header,
		Body:       io.NopCloser(bytes.NewReader(w.body.Bytes())),
	}, nil
}

// HandlerTarget wraps one in-process handler — a single *server.Server
// Handler() or one node of an in-process cluster — as a Target.
func HandlerTarget(h http.Handler) Target {
	const host = "loadgen.inprocess"
	return Target{Base: "http://" + host, Client: Transport{host: h}}
}

// Options configures a run over an already-built Schedule.
type Options struct {
	// Workers bounds in-flight requests. Closed loop: each worker issues
	// back-to-back. Open loop (QPS > 0): workers drain the paced queue.
	// Defaults to 1.
	Workers int
	// QPS > 0 switches to open-loop arrivals: request i is dispatched at
	// start + i/QPS regardless of completions, and its latency is
	// measured from that intended dispatch time (queue delay counts —
	// the coordinated-omission-safe measurement).
	QPS float64
	// Timeout is the client-side per-request bound; 0 means none.
	Timeout time.Duration
	// VerifyMetrics scrapes Base+/metrics before and after the run and
	// cross-checks client accounting against the server's counter deltas.
	// Requires the generator to be the target's only client.
	VerifyMetrics bool
}

// latencyBuckets is the latency grid reports quote quantiles from:
// 50µs to 60s, dense under a second where SLOs live.
func latencyBuckets() []float64 {
	return []float64{5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
}

// OpStats accounts one op's outcomes (or the run total).
type OpStats struct {
	Issued          uint64         `json:"issued"`
	Done            uint64         `json:"done"` // received an HTTP response
	TransportErrors uint64         `json:"transport_errors"`
	OK              uint64         `json:"ok"`          // 2xx
	Shed            uint64         `json:"shed"`        // 429 from the concurrency limiter
	Timeouts        uint64         `json:"timeouts"`    // 503 bounded estimate timeout
	Unavailable     uint64         `json:"unavailable"` // other 503 (degraded miss)
	Degraded        uint64         `json:"degraded"`    // degraded:true bodies (batch: per element)
	Errors          uint64         `json:"errors"`      // transport + 5xx that is NOT an orderly 503
	Status          map[int]uint64 `json:"status"`      // every status code seen
}

func (s *OpStats) add(o *OpStats) {
	s.Issued += o.Issued
	s.Done += o.Done
	s.TransportErrors += o.TransportErrors
	s.OK += o.OK
	s.Shed += o.Shed
	s.Timeouts += o.Timeouts
	s.Unavailable += o.Unavailable
	s.Degraded += o.Degraded
	s.Errors += o.Errors
	for code, n := range o.Status {
		if s.Status == nil {
			s.Status = map[int]uint64{}
		}
		s.Status[code] += n
	}
}

// workerState is one worker's private accounting; merged after the run.
type workerState struct {
	perOp map[Op]*OpStats
	hist  map[Op]*obs.Histogram
	all   *obs.Histogram
	maxS  float64
}

func newWorkerState() *workerState {
	buckets := latencyBuckets()
	w := &workerState{
		perOp: map[Op]*OpStats{},
		hist:  map[Op]*obs.Histogram{},
		all:   obs.NewHistogram(buckets),
	}
	for _, op := range Ops() {
		w.perOp[op] = &OpStats{Status: map[int]uint64{}}
		w.hist[op] = obs.NewHistogram(buckets)
	}
	return w
}

// Result is the raw outcome of a run, before report rendering.
type Result struct {
	Schedule *Schedule
	Options  Options
	Started  time.Time
	Elapsed  time.Duration
	Totals   OpStats
	PerOp    map[Op]*OpStats
	Hist     obs.HistogramState // merged overall latency distribution
	PerOpH   map[Op]obs.HistogramState
	MaxSec   float64 // largest single latency observed
	Cross    *CrossCheck
}

// Run executes the schedule. ctx cancellation stops issuing new
// requests (in-flight ones finish); the partial result is still
// returned.
func Run(ctx context.Context, target Target, sched *Schedule, opts Options) (*Result, error) {
	if len(sched.Requests) == 0 {
		return nil, fmt.Errorf("loadgen: empty schedule")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}

	var pre obs.MetricSet
	if opts.VerifyMetrics {
		var err error
		pre, err = scrapeMetrics(target)
		if err != nil {
			return nil, fmt.Errorf("loadgen: pre-run metrics scrape: %w", err)
		}
	}

	res := &Result{Schedule: sched, Options: opts, Started: time.Now()}
	states := make([]*workerState, workers)
	for i := range states {
		states[i] = newWorkerState()
	}

	start := time.Now()
	var wg sync.WaitGroup
	if opts.QPS > 0 {
		// Open loop: a dispatcher paces arrivals onto a deep queue; the
		// intended dispatch time rides along so queue delay is charged to
		// the latency measurement, not silently dropped.
		type arrival struct {
			idx      int
			intended time.Time
		}
		queue := make(chan arrival, len(sched.Requests))
		go func() {
			defer close(queue)
			for i := range sched.Requests {
				intended := start.Add(time.Duration(float64(i) / opts.QPS * float64(time.Second)))
				if d := time.Until(intended); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				} else if ctx.Err() != nil {
					return
				}
				queue <- arrival{idx: i, intended: intended}
			}
		}()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(st *workerState) {
				defer wg.Done()
				for a := range queue {
					issue(ctx, target, &sched.Requests[a.idx], st, opts.Timeout, a.intended)
				}
			}(states[w])
		}
	} else {
		// Closed loop: workers race down the schedule back-to-back.
		var next atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(st *workerState) {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1) - 1)
					if i >= len(sched.Requests) {
						return
					}
					issue(ctx, target, &sched.Requests[i], st, opts.Timeout, time.Time{})
				}
			}(states[w])
		}
	}
	wg.Wait()
	res.Elapsed = time.Since(start)

	// Merge worker-local accounting.
	res.PerOp = map[Op]*OpStats{}
	res.PerOpH = map[Op]obs.HistogramState{}
	for _, op := range Ops() {
		res.PerOp[op] = &OpStats{Status: map[int]uint64{}}
	}
	for _, st := range states {
		for _, op := range Ops() {
			res.PerOp[op].add(st.perOp[op])
			res.PerOpH[op] = res.PerOpH[op].Merge(st.hist[op].State())
		}
		res.Hist = res.Hist.Merge(st.all.State())
		if st.maxS > res.MaxSec {
			res.MaxSec = st.maxS
		}
	}
	for _, op := range Ops() {
		res.Totals.add(res.PerOp[op])
	}

	if opts.VerifyMetrics {
		// The server's request counters are incremented in a deferred
		// middleware hook AFTER the response bytes go out, so over a real
		// network the last response can arrive before its counter moves.
		// A short settle window makes the post-scrape see the full run.
		settle := time.NewTimer(150 * time.Millisecond)
		select {
		case <-settle.C:
		case <-ctx.Done():
			settle.Stop()
			return nil, ctx.Err()
		}
		post, err := scrapeMetrics(target)
		if err != nil {
			return nil, fmt.Errorf("loadgen: post-run metrics scrape: %w", err)
		}
		res.Cross = crossCheck(res, pre, post)
	}
	return res, nil
}

// timeoutBodyMarker is how the server words a bounded estimate timeout;
// used to split orderly 503 timeouts from degraded-miss 503s. Matched
// with Contains because batch responses wrap it: `feature "x": estimate
// still computing after …`.
const timeoutBodyMarker = "estimate still computing"

// issue sends one request and classifies the outcome into st. intended
// is the open-loop dispatch time (zero for closed loop).
func issue(ctx context.Context, target Target, r *Request, st *workerState, timeout time.Duration, intended time.Time) {
	stats := st.perOp[r.Op]
	stats.Issued++

	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var body io.Reader
	if r.Body != "" {
		body = strings.NewReader(r.Body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, target.Base+r.Path, body)
	if err != nil {
		stats.TransportErrors++
		stats.Errors++
		return
	}
	if r.Body != "" {
		req.Header.Set("Content-Type", "application/json")
	}

	begin := time.Now()
	if intended.IsZero() || intended.After(begin) {
		intended = begin
	}
	resp, err := target.client().Do(req)
	elapsed := time.Since(intended)
	if err != nil {
		stats.TransportErrors++
		stats.Errors++
		return
	}
	payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	resp.Body.Close()

	sec := elapsed.Seconds()
	st.all.Observe(sec)
	st.hist[r.Op].Observe(sec)
	if sec > st.maxS {
		st.maxS = sec
	}

	stats.Done++
	if stats.Status == nil {
		stats.Status = map[int]uint64{}
	}
	stats.Status[resp.StatusCode]++
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		stats.Shed++
	case resp.StatusCode == http.StatusServiceUnavailable:
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(payload, &e) == nil && strings.Contains(e.Error, timeoutBodyMarker) {
			stats.Timeouts++
		} else {
			stats.Unavailable++
		}
	case resp.StatusCode >= 500:
		stats.Errors++
	case resp.StatusCode < 300:
		stats.OK++
		stats.Degraded += countDegradedBodies(r.Op, payload)
	}
}

// countDegradedBodies counts degraded estimates inside a 2xx body: the
// response itself for /api/estimate, each element for batch responses —
// matching how the server counts flare_degraded_responses_total.
func countDegradedBodies(op Op, payload []byte) uint64 {
	switch op {
	case OpEstimate:
		var e struct {
			Degraded bool `json:"degraded"`
		}
		if json.Unmarshal(payload, &e) == nil && e.Degraded {
			return 1
		}
	case OpBatch:
		var b struct {
			Estimates []json.RawMessage `json:"estimates"`
		}
		if json.Unmarshal(payload, &b) != nil {
			return 0
		}
		var n uint64
		for _, raw := range b.Estimates {
			var e struct {
				Degraded bool `json:"degraded"`
			}
			if json.Unmarshal(raw, &e) == nil && e.Degraded {
				n++
			}
		}
		return n
	}
	return 0
}

// scrapeMetrics fetches and parses the target's /metrics exposition.
func scrapeMetrics(target Target) (obs.MetricSet, error) {
	req, err := http.NewRequest(http.MethodGet, target.Base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := target.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics answered %d", resp.StatusCode)
	}
	return obs.ParseMetrics(resp.Body)
}

// CrossCheck is the client-versus-server accounting comparison.
type CrossCheck struct {
	Pass   bool       `json:"pass"`
	Checks []CheckRow `json:"checks"`
}

// CheckRow compares one quantity.
type CheckRow struct {
	Name   string `json:"name"`
	Client uint64 `json:"client"`
	Server uint64 `json:"server"`
	Match  bool   `json:"match"`
}

// crossCheck derives the server-side deltas and compares them with the
// client's books. Every comparison is exact: the generator was the only
// client, so any slack means double counting or lost requests.
func crossCheck(res *Result, pre, post obs.MetricSet) *CrossCheck {
	delta := func(f obs.CounterFamily) uint64 {
		return uint64(post.Sum(f.Name) - pre.Sum(f.Name))
	}
	cc := &CrossCheck{Pass: true}
	addCheck := func(name string, client, server uint64) {
		row := CheckRow{Name: name, Client: client, Server: server, Match: client == server}
		if !row.Match {
			cc.Pass = false
		}
		cc.Checks = append(cc.Checks, row)
	}
	addCheck("shed (429 vs "+obs.Shed.Name+")",
		res.Totals.Shed, delta(obs.Shed))
	addCheck("timeouts (503 vs "+obs.RequestTimeouts.Name+")",
		res.Totals.Timeouts, delta(obs.RequestTimeouts))
	addCheck("degraded (bodies vs "+obs.DegradedResponses.Name+")",
		res.Totals.Degraded, delta(obs.DegradedResponses))
	for _, op := range Ops() {
		stats := res.PerOp[op]
		if stats.Issued == 0 {
			continue
		}
		route := op.Route()
		requests := obs.HTTPRequests.Name
		server := uint64(post.SumLabel(requests, "route", route) - pre.SumLabel(requests, "route", route))
		addCheck(fmt.Sprintf("requests[%s] (responses vs %s{route=%q})", op, requests, route),
			stats.Done, server)
	}
	return cc
}
