package main

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"flare/internal/machine"
	"flare/internal/workload"
)

// The three workloads. See README.md for why each exists.
const (
	workloadCold = "estimate-cold"
	workloadHot  = "estimate-hot"
	workloadTick = "tick-mix"
)

var workloads = []string{workloadCold, workloadHot, workloadTick}

// estKey is one estimate cache key: a paper feature, for all jobs ("") or
// for one HP job.
type estKey struct {
	Feature machine.Feature
	Job     string
}

func (k estKey) path() string {
	q := url.Values{"feature": {k.Feature.Name}}
	if k.Job != "" {
		q.Set("job", k.Job)
	}
	return "/api/estimate?" + q.Encode()
}

// estimateKeys returns the 3 paper features x (all-job + each HP job).
func estimateKeys() []estKey {
	var keys []estKey
	for _, f := range machine.PaperFeatures() {
		keys = append(keys, estKey{Feature: f})
		for _, p := range workload.DefaultCatalog().HPJobs() {
			keys = append(keys, estKey{Feature: f, Job: p.Name})
		}
	}
	return keys
}

// tickOp is one scheduled re-measure tick: the IDs to re-measure and, in
// the open loop, when it is due after the phase starts.
type tickOp struct {
	Due     time.Duration
	Changed []int
}

func (t tickOp) body() string {
	ids := make([]string, len(t.Changed))
	for i, id := range t.Changed {
		ids[i] = strconv.Itoa(id)
	}
	return `{"changed":[` + strings.Join(ids, ",") + `]}`
}

// schedule is everything the server will be sent, as a pure function of
// the workload, the seed and the sizes. Closed-loop clients cycle through
// their key sequences; ticks go out in order.
type schedule struct {
	Workload string
	Clients  [][]int // per client, indexes into estimateKeys()
	Ticks    []tickOp
	OpenLoop bool // ticks are sent at their due time, else back to back
}

const (
	// clientSeqLen is each client's key-sequence length before it repeats.
	clientSeqLen = 4096
	// tickRate is tick-mix's open-loop ticks per second.
	tickRate = 20
)

func buildSchedule(cfg config, nKeys, population int) schedule {
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := schedule{Workload: cfg.Workload}
	all := rng.Perm(nKeys)
	switch cfg.Workload {
	case workloadCold:
		// Disjoint key sets: no request can join another client's
		// computation, so every request computes.
		half := nKeys / 2
		s.Clients = [][]int{keySequence(rng, all[:half+nKeys%2]), keySequence(rng, all[half+nKeys%2:])}
	case workloadHot:
		s.Clients = [][]int{keySequence(rng, all), keySequence(rng, all)}
	case workloadTick:
		s.Clients = [][]int{keySequence(rng, all)}
	}
	n, interval := cfg.ProbeTicks, time.Duration(0)
	if cfg.Workload == workloadTick {
		s.OpenLoop = true
		interval = time.Second / tickRate
		n = int(cfg.Seconds / interval)
	}
	for i := 0; i < n; i++ {
		s.Ticks = append(s.Ticks, tickOp{Due: time.Duration(i) * interval, Changed: changedIDs(rng, population)})
	}
	return s
}

// keySequence repeats seeded shuffles of keys up to clientSeqLen, so every
// key is requested equally often in any window of len(keys) requests.
func keySequence(rng *rand.Rand, keys []int) []int {
	seq := make([]int, 0, clientSeqLen)
	for len(seq) < clientSeqLen {
		for _, i := range rng.Perm(len(keys)) {
			seq = append(seq, keys[i])
		}
	}
	return seq[:clientSeqLen]
}

// changedIDs draws 1-3 distinct scenario IDs, sorted.
func changedIDs(rng *rand.Rand, population int) []int {
	n := 1 + rng.Intn(3)
	seen := make(map[int]bool, n)
	var ids []int
	for len(ids) < n && len(ids) < population {
		id := rng.Intn(population)
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// fingerprint is an FNV-64a hash over the whole schedule.
func (s schedule) fingerprint() uint64 {
	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	h.Write([]byte(s.Workload))
	for _, seq := range s.Clients {
		put(int64(len(seq)))
		for _, k := range seq {
			put(int64(k))
		}
	}
	for _, t := range s.Ticks {
		put(int64(t.Due))
		h.Write([]byte(t.body()))
	}
	return h.Sum64()
}

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header), code: http.StatusOK} }

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) WriteHeader(code int)        { r.code = code }

func (r *recorder) reset() {
	clear(r.hdr)
	r.code = http.StatusOK
	r.body.Reset()
}

// estSample is one timed estimate kept for the tick-mix epoch check.
type estSample struct {
	Key        int
	Start, End int64 // ns since the phase clock's origin
	Body       int   // index into the client's interned bodies
}

// clientResult is what one closed-loop estimate client observed.
type clientResult struct {
	Durations []int64 // ns, one per completed request
	Ends      []int64 // ns from the phase start to each completion
	Failed    int
	Errors    []string // the first few failure descriptions
	Samples   []estSample
	Bodies    [][]byte
	Spans     []spanRec
	Cal       []int64 // reference-kernel burst times, ns (see calib.go)
	CalEnds   []int64 // ns from the phase start to the end of each burst
}

func (c *clientResult) fail(msg string) {
	c.Failed++
	if len(c.Errors) < 3 {
		c.Errors = append(c.Errors, msg)
	}
}

// estimateClient runs one closed loop: send the next key of seq as soon
// as the previous reply is in, until the deadline. With primed bodies it
// checks every reply byte for byte; without, it keeps each reply (interned)
// with its interval for the epoch check. Traced, it records one
// server.request span per reply. Between requests it times a
// reference-kernel burst every calPeriod. clock is the phase's time origin.
type estimateClient struct {
	handler http.Handler
	keys    []estKey
	seq     []int
	primed  [][]byte
	clock   *spanLog
	traced  bool
}

func (c estimateClient) run(phaseStart, deadline time.Time) clientResult {
	var res clientResult
	reqs := make([]*http.Request, len(c.keys))
	for i, k := range c.keys {
		reqs[i] = httptest.NewRequest(http.MethodGet, k.path(), nil)
	}
	rec := newRecorder()
	intern := make(map[string]int)
	var cal calibrator
	for i := 0; ; i++ {
		k := c.seq[i%len(c.seq)]
		rec.reset()
		start := time.Now()
		if !start.Before(deadline) {
			return res
		}
		c.handler.ServeHTTP(rec, reqs[k])
		end := time.Now()
		res.Durations = append(res.Durations, int64(end.Sub(start)))
		res.Ends = append(res.Ends, int64(end.Sub(phaseStart)))
		if cal.due(end) {
			res.Cal = append(res.Cal, cal.burst())
			res.CalEnds = append(res.CalEnds, int64(cal.last.Sub(phaseStart)))
		}
		if c.traced {
			res.Spans = append(res.Spans, spanRec{ID: c.clock.newID(), Name: "server.request",
				Req: rec.hdr.Get("X-Request-Id"), Start: c.clock.since(start), End: c.clock.since(end)})
		}
		body := rec.body.Bytes()
		switch {
		case rec.code != http.StatusOK:
			res.fail(c.keys[k].path() + ": status " + strconv.Itoa(rec.code))
		case c.primed != nil:
			if !bytes.Equal(body, c.primed[k]) {
				res.fail(c.keys[k].path() + ": body differs from the primed body")
			}
		default:
			id, ok := intern[string(body)]
			if !ok {
				id = len(res.Bodies)
				res.Bodies = append(res.Bodies, bytes.Clone(body))
				intern[string(body)] = id
			}
			res.Samples = append(res.Samples, estSample{Key: k, Start: c.clock.since(start), End: c.clock.since(end), Body: id})
		}
	}
}

// tickSample is one sent tick: when it was due, sent and answered (ns
// since the phase clock's origin), and the reply.
type tickSample struct {
	Due, Sent, Done int64
	Code            int
	Body            []byte
	Req             string
	Cal             int64 // the reference-kernel burst after the tick, ns; 0 if none ran
}

// sendTicks posts ticks strictly in order, one at a time. In the open
// loop each waits for its due time (phase start + Due); a tick that is
// already late goes out at once and the lateness is recorded. After each
// tick it times a reference-kernel burst, unless the next tick is due
// within a millisecond.
func sendTicks(h http.Handler, ticks []tickOp, open bool, start time.Time, clock *spanLog) []tickSample {
	out := make([]tickSample, 0, len(ticks))
	reqs := make([]*http.Request, len(ticks))
	for i, t := range ticks {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/api/tick", strings.NewReader(t.body()))
	}
	rec := newRecorder()
	var cal calibrator
	for i, t := range ticks {
		due := time.Now()
		if open {
			due = start.Add(t.Due)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		rec.reset()
		sent := time.Now()
		h.ServeHTTP(rec, reqs[i])
		done := time.Now()
		out = append(out, tickSample{Due: clock.since(due), Sent: clock.since(sent), Done: clock.since(done),
			Code: rec.code, Body: bytes.Clone(rec.body.Bytes()), Req: rec.hdr.Get("X-Request-Id")})
		if !open || i+1 == len(ticks) || time.Until(start.Add(ticks[i+1].Due)) > time.Millisecond {
			out[i].Cal = cal.burst()
		}
	}
	return out
}

// phaseResult is one timed phase: the estimate clients and, on tick-mix,
// the tick sender, all started together.
type phaseResult struct {
	Clients []clientResult
	Ticks   []tickSample
	Elapsed time.Duration
}

func runPhase(s *served, sched schedule, keys []estKey, primed [][]byte, d time.Duration, clock *spanLog, traced bool) phaseResult {
	var res phaseResult
	res.Clients = make([]clientResult, len(sched.Clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, seq := range sched.Clients {
		wg.Add(1)
		go func(i int, seq []int) {
			defer wg.Done()
			c := estimateClient{handler: s.handler, keys: keys, seq: seq, primed: primed, clock: clock, traced: traced}
			res.Clients[i] = c.run(start, deadline)
		}(i, seq)
	}
	if sched.OpenLoop {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.Ticks = sendTicks(s.handler, sched.Ticks, true, start, clock)
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}
