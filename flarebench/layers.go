package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"flare/internal/analyzer"
	"flare/internal/drift"
	"flare/internal/linalg"
	"flare/internal/machine"
	"flare/internal/metricdb"
	"flare/internal/obs"
	"flare/internal/perfmodel"
	"flare/internal/perfscore"
	"flare/internal/profiler"
	"flare/internal/replayer"
	"flare/internal/server"
	"flare/internal/store"
)

// layerInput is what the traced run hands the layer measurements.
type layerInput struct {
	cfg   config
	s     *served
	sched schedule
	keys  []estKey
	spans *spanLog

	tracedCache cacheCounts  // cache lookups during the traced phase
	tracedWAL   uint64       // WAL commit batches during the traced phase
	tracedTicks []tickSample // the ticks sent in the traced phase or the probe

	untracedP50, tracedP50 float64 // estimate p50 (ms) without and with spans
	lateMs                 []float64
}

// measureLayers times every layer from outside, through its public
// functions, on the workload's own inputs, and adds the per-layer metrics.
func measureLayers(in layerInput, rep *report) error {
	sp := in.spans

	// server: the traced phase's requests and ticks.
	reqUs := 1e3 * sp.meanMs("server.request")
	for _, t := range in.tracedTicks {
		sp.add(spanRec{ID: sp.newID(), Name: "server.tick_request", Req: t.Req, Start: t.Sent, End: t.Done})
	}
	dec, err := decompose(in)
	if err != nil {
		return err
	}
	allocs, allocBytes, err := countAllocs(in)
	if err != nil {
		return err
	}
	rep.add("server.request_us", reqUs, "us")
	rep.add("server.self_us", dec.selfUs, "us")
	rep.add("server.allocs_per_request", allocs, "count")
	rep.add("server.alloc_bytes_per_request", allocBytes, "B")
	c := in.tracedCache
	rep.add("server.cache_hit_share", ratio(float64(c.Hit), float64(c.Hit+c.computed())), "ratio")
	rep.add("server.tick_request_ms", sp.meanMs("server.tick_request"), "ms")

	if err := obsLayer(in, rep); err != nil {
		return err
	}

	// core: per call and per feature, never summed over features.
	p := in.s.pipeline
	for _, job := range []bool{false, true} {
		name := "core.evaluate"
		if job {
			name = "core.evaluate_job"
		}
		var total, calls float64
		for _, f := range machine.PaperFeatures() {
			var fTotal, fCalls float64
			for _, k := range in.keys {
				if k.Feature.Name != f.Name || (k.Job != "") != job {
					continue
				}
				d, err := sp.loop(name+"."+f.Name, in.cfg.LayerReps, func(int) error {
					_, err := referenceEstimate(p, k)
					return err
				})
				if err != nil {
					return err
				}
				fTotal += d * float64(in.cfg.LayerReps)
				fCalls += float64(in.cfg.LayerReps)
			}
			rep.add(name+"_ms."+f.Name, fTotal/fCalls/1e6, "ms")
			total += fTotal
			calls += fCalls
		}
		rep.add(name+"_ms", total/calls/1e6, "ms")
	}
	coreTick, chain, err := tickChain(in)
	if err != nil {
		return err
	}
	rep.add("core.tick_ms", coreTick, "ms")
	rep.add("core.persist_ms", sp.meanMs("core.persist"), "ms")
	cc := coreConfig(in.cfg.Clusters)
	inh, err := sp.loop("perfscore.inherent", in.cfg.LayerReps, func(int) error {
		_, err := perfscore.NewInherent(cc.Machine, cc.Jobs)
		return err
	})
	if err != nil {
		return err
	}
	rep.add("perfscore.inherent_ms", inh/1e6, "ms")

	rep.add("replayer.scenarios_per_estimate", dec.scenarios, "count")
	scen, evalD, relaxD, resultD, err := replayLayers(in)
	if err != nil {
		return err
	}
	rep.add("perfscore.scenario_us", scen/1e3, "us")
	rep.add("perfmodel.evaluate_us", evalD/1e3, "us")
	rep.add("perfmodel.relax_us", relaxD/1e3, "us")
	rep.add("perfmodel.result_us", resultD/1e3, "us")

	insert, appendD, err := journalLayers(in)
	if err != nil {
		return err
	}
	rep.add("metricdb.insert_us", insert/1e3, "us")
	rep.add("store.append_us", appendD/1e3, "us")
	rep.add("store.fsyncs_per_estimate", ratio(float64(in.tracedWAL), float64(c.computed())), "count")

	rep.add("profiler.tick_ms", chain.profilerTick, "ms")
	rep.add("drift.assess_us", chain.assessUs, "us")
	rep.add("analyzer.tick_ms", chain.analyzerTick, "ms")
	rep.add("analyzer.rebuilds", chain.rebuilds, "count")
	rep.add("analyzer.rebuild_ms", chain.rebuildMs, "ms")
	rep.add("profiler.collect_ms", chain.collectMs, "ms")
	rep.add("analyzer.analyze_ms", chain.analyzeMs, "ms")

	overhead := ratio(in.tracedP50, in.untracedP50) - 1
	rep.add("trace.overhead_share", overhead, "ratio")
	rep.add("trace.reconcile_gap_share", dec.gap, "ratio")
	rep.add("generator.lateness_max_ms", quantile(in.lateMs, 1), "ms")
	rep.linef("tracing overhead: traced estimate_p50_ms %.4f vs untraced %.4f (%+.1f%%)", in.tracedP50, in.untracedP50, 100*overhead)
	rep.linef("reconciliation: over %d decomposed requests the layer self times sum to the request time within a median %.1f%%",
		dec.requests, 100*dec.gap)
	for _, m := range rep.Metrics {
		rep.linef("%-36s %14.4f %s", m.Name, m.Value, m.Unit)
	}
	return nil
}

// decomposition is the outside-in split of sampled requests.
type decomposition struct {
	requests  int
	selfUs    float64 // mean of request time minus core evaluate time
	gap       float64 // median |sum of layer self times - request| / request
	scenarios float64 // mean scenarios_replayed in the replies
}

// decompose replays the first Decompose requests of the workload's own
// client sequences. Each is sent for real ("server.request"), then its
// path is rebuilt from the layers' public functions under one "outside"
// span with the same request ID: the server layer (a cache hit on a
// primed twin server over the same pipeline), and, when the real request
// computed, core's evaluate and the journal insert. The two trees must
// take the same time within noise.
//
// The requests are timed one at a time, in microseconds, so they record
// into a small log of their own, merged at the end: growing or scanning
// the traced phase's millions of spans between two of them would evict
// the CPU caches and start collections inside the timed requests.
func decompose(in layerInput) (decomposition, error) {
	var d decomposition
	sp, s := in.spans.child(), in.s
	defer in.spans.merge(sp)
	twin, err := server.NewWithTelemetry(s.pipeline, machine.PaperFeatures(), obs.NewRegistry(), nil)
	if err != nil {
		return d, err
	}
	opts := server.DefaultResilience()
	opts.EstimateRefresh = 0
	twin.SetResilience(opts)
	twinH := twin.Handler()
	if _, err := prime(twinH, in.keys); err != nil {
		return d, err
	}
	j, err := openJournal(filepath.Join(in.cfg.Dir, "journal-decompose"))
	if err != nil {
		return d, err
	}
	defer j.close()

	var seq []int
	for i := 0; len(seq) < in.cfg.Decompose; i++ {
		for _, c := range in.sched.Clients {
			seq = append(seq, c[i%len(c)])
		}
	}
	runtime.GC()
	rec := newRecorder()
	type outsideTree struct {
		root int64
		req  time.Duration
	}
	var trees []outsideTree
	var selfTotal, scenTotal float64
	for _, k := range seq[:in.cfg.Decompose] {
		key := in.keys[k]
		req, _ := http.NewRequest(http.MethodGet, key.path(), nil)
		before := readCache(s.reg)
		var reqID string
		var body estimateBody
		reqSpan := sp.newID()
		start := time.Now()
		rec.reset()
		s.handler.ServeHTTP(rec, req)
		end := time.Now()
		reqID = rec.hdr.Get("X-Request-Id")
		sp.add(spanRec{ID: reqSpan, Name: "server.request", Req: reqID, Start: sp.since(start), End: sp.since(end)})
		if rec.code != http.StatusOK {
			return d, fmt.Errorf("decomposed request %s: status %d", key.path(), rec.code)
		}
		if body, err = parseEstimate(rec.body.Bytes()); err != nil {
			return d, err
		}
		computed := readCache(s.reg).sub(before).computed() > 0

		var coreDur time.Duration
		outside := sp.newID()
		oStart := time.Now()
		err := sp.timed("server.hit", outside, reqID, func() error {
			rec.reset()
			twinH.ServeHTTP(rec, req)
			if rec.code != http.StatusOK {
				return fmt.Errorf("twin %s: status %d", key.path(), rec.code)
			}
			return nil
		})
		if err == nil && computed {
			cStart := time.Now()
			err = sp.timed("core.evaluate", outside, reqID, func() error {
				_, err := referenceEstimate(s.pipeline, key)
				return err
			})
			coreDur = time.Since(cStart)
			if err == nil {
				err = sp.timed("metricdb.insert", outside, reqID, func() error { return j.insert(body) })
			}
		}
		if err != nil {
			return d, err
		}
		sp.add(spanRec{ID: outside, Name: "outside", Req: reqID, Start: sp.since(oStart), End: sp.since(time.Now())})

		reqDur := end.Sub(start)
		selfTotal += float64(reqDur-coreDur) / 1e3
		scenTotal += float64(body.ScenariosReplayed)
		trees = append(trees, outsideTree{outside, reqDur})
	}
	var gaps []float64
	for _, t := range trees {
		gaps = append(gaps, reconcileGap(sp, t.root, t.req))
	}
	n := float64(in.cfg.Decompose)
	d.requests = in.cfg.Decompose
	d.selfUs = selfTotal / n
	d.scenarios = scenTotal / n
	d.gap = median(gaps)
	return d, nil
}

// reconcileGap sums the self times of the tree under root and compares
// the sum with the real request's duration.
func reconcileGap(sp *spanLog, root int64, req time.Duration) float64 {
	sp.mu.Lock()
	var tree []spanRec
	for _, s := range sp.spans {
		if s.ID == root || s.Parent == root {
			tree = append(tree, s)
		}
	}
	sp.mu.Unlock()
	var sum int64
	for _, self := range selfTimes(tree) {
		sum += self
	}
	gap := float64(sum-int64(req)) / float64(req)
	if gap < 0 {
		gap = -gap
	}
	return gap
}

// journal is a store-backed metricdb with the server's estimates table,
// opened on its own store so timing it leaves the served journal alone.
type journal struct {
	dir   string
	st    *store.Store
	table *metricdb.Table
}

func openJournal(dir string) (*journal, error) {
	st, err := store.Open(dir, store.DefaultOptions())
	if err != nil {
		return nil, err
	}
	j := &journal{dir: dir, st: st}
	db, err := metricdb.OpenDB(st)
	if err == nil {
		j.table, err = db.CreateTable("estimates", []metricdb.Column{
			{Name: "feature", Type: metricdb.TypeString},
			{Name: "job", Type: metricdb.TypeString},
			{Name: "reduction_pct", Type: metricdb.TypeFloat},
			{Name: "scenarios", Type: metricdb.TypeInt},
		})
	}
	if err != nil {
		_ = j.close()
		return nil, err
	}
	return j, nil
}

func (j *journal) insert(e estimateBody) error {
	return j.table.Insert(metricdb.Row{metricdb.String(e.Feature), metricdb.String(e.Job),
		metricdb.Float(e.ReductionPct), metricdb.Int(int64(e.ScenariosReplayed))})
}

func (j *journal) close() error {
	err := j.st.Close()
	if rerr := os.RemoveAll(j.dir); err == nil {
		err = rerr
	}
	return err
}

// journalLayers times one estimate-row insert and one raw store append,
// each a durable (fsynced) commit.
func journalLayers(in layerInput) (insert, appendD float64, err error) {
	j, err := openJournal(filepath.Join(in.cfg.Dir, "journal-layers"))
	if err != nil {
		return 0, 0, err
	}
	defer j.close()
	bodies := make([]estimateBody, len(in.keys))
	for i, k := range in.keys {
		if bodies[i], err = referenceEstimate(in.s.pipeline, k); err != nil {
			return 0, 0, err
		}
	}
	insert, err = in.spans.loop("metricdb.insert", in.cfg.JournalOps, func(i int) error {
		return j.insert(bodies[i%len(bodies)])
	})
	if err != nil {
		return 0, 0, err
	}
	val := []byte(`{"feature":"feature1","job":"","reduction_pct":14.5,"scenarios":18}`)
	appendD, err = in.spans.loop("store.append", in.cfg.JournalOps, func(i int) error {
		return j.st.Append([]byte(fmt.Sprintf("bench/%08d", i)), val)
	})
	return insert, appendD, err
}

// countAllocs sends AllocOps requests of the workload's first client
// sequence serially and divides the allocation counters by them.
func countAllocs(in layerInput) (allocs, allocBytes float64, err error) {
	seq := in.sched.Clients[0]
	reqs := make([]*http.Request, len(in.keys))
	for i, k := range in.keys {
		reqs[i], _ = http.NewRequest(http.MethodGet, k.path(), nil)
	}
	rec := newRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = in.spans.loop("server.alloc_requests", in.cfg.AllocOps, func(i int) error {
		rec.reset()
		in.s.handler.ServeHTTP(rec, reqs[seq[i%len(seq)]])
		if rec.code != http.StatusOK {
			return fmt.Errorf("status %d", rec.code)
		}
		return nil
	})
	runtime.ReadMemStats(&after)
	n := float64(in.cfg.AllocOps)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n, err
}

// obsLayer times the telemetry primitives every request touches.
func obsLayer(in layerInput, rep *report) error {
	sp, n := in.spans, in.cfg.ObsOps
	reg := obs.NewRegistry()
	counter, err := sp.loop("obs.counter_lookup", n, func(int) error {
		reg.Counter("flare_http_requests_total", "HTTP requests served by route and status code",
			"route", "/api/estimate", "code", "200").Inc()
		return nil
	})
	if err != nil {
		return err
	}
	h := reg.Histogram("flare_http_request_duration_seconds", "HTTP request latency by route", nil, "route", "/api/estimate")
	observe, err := sp.loop("obs.histogram_observe", n, func(i int) error {
		h.Observe(float64(i%100) * 1e-5)
		return nil
	})
	if err != nil {
		return err
	}
	// Spans from 2 goroutines at once, as 2 clients would: the time one
	// goroutine takes per StartSpan+End while the other contends.
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(reg))
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				_, span := obs.StartSpan(ctx, "server.estimate")
				span.End()
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	sp.add(spanRec{ID: sp.newID(), Name: "obs.span", Start: sp.since(start), End: sp.since(end), Ops: n})
	rep.add("obs.counter_lookup_ns", counter, "ns")
	rep.add("obs.histogram_observe_ns", observe, "ns")
	rep.add("obs.span_ns", float64(end.Sub(start))/float64(n), "ns")
	return nil
}

// replayLayers times what one estimate replays, on the served analysis's
// representatives under the baseline and the paper features: perfscore's
// EvaluateScenario with the replayer's default options, and perfmodel's
// one-shot Evaluate and the Evaluator's Begin+Relax and ResultInto.
func replayLayers(in layerInput) (scenario, evaluate, relax, result float64, err error) {
	p := in.s.pipeline
	ro := replayer.DefaultOptions()
	rng := rand.New(rand.NewSource(ro.Seed))
	base := p.Machine()
	reps := p.Representatives()
	set := p.Dataset().Scenarios
	feats := machine.PaperFeatures()

	type colocation struct {
		cfg machine.Config
		asg []perfmodel.Assignment
	}
	var work []colocation
	var scRuns []func() error
	for _, r := range reps {
		sc, err := set.Get(r.ScenarioID)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		asg, err := profiler.Assignments(sc, p.Jobs())
		if err != nil {
			return 0, 0, 0, 0, err
		}
		work = append(work, colocation{base, asg})
		for _, f := range feats {
			f := f
			work = append(work, colocation{f.Apply(base), asg})
			scRuns = append(scRuns, func() error {
				_, err := perfscore.EvaluateScenario(base, f, sc, p.Jobs(), p.Inherent(), perfscore.Options{
					NoiseStd: ro.ReconstructionNoiseStd, Samples: ro.Samples, Rand: rng})
				return err
			})
		}
	}
	sp, reps3 := in.spans, in.cfg.LayerReps
	scenario, err = sp.loop("perfscore.scenario", reps3*len(scRuns), func(i int) error { return scRuns[i%len(scRuns)]() })
	if err != nil {
		return
	}
	mo := perfmodel.Options{NoiseStd: ro.ReconstructionNoiseStd, Rand: rng}
	evaluate, err = sp.loop("perfmodel.evaluate", reps3*len(work), func(i int) error {
		w := work[i%len(work)]
		_, err := perfmodel.Evaluate(w.cfg, w.asg, mo)
		return err
	})
	if err != nil {
		return
	}
	// Begin+Relax and ResultInto interleave on one evaluator per
	// colocation, so they are timed call by call and summed.
	var relaxTotal, resultTotal time.Duration
	var res perfmodel.Result
	for r := 0; r < reps3; r++ {
		for _, w := range work {
			ev, err := perfmodel.NewEvaluator(w.cfg)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			t0 := time.Now()
			if err := ev.Begin(w.asg); err != nil {
				return 0, 0, 0, 0, err
			}
			if err := ev.Relax(nil); err != nil {
				return 0, 0, 0, 0, err
			}
			t1 := time.Now()
			if err := ev.ResultInto(&res, mo); err != nil {
				return 0, 0, 0, 0, err
			}
			relaxTotal += t1.Sub(t0)
			resultTotal += time.Since(t1)
		}
	}
	n := float64(reps3 * len(work))
	return scenario, evaluate, float64(relaxTotal) / n, float64(resultTotal) / n, nil
}

// chainTimes are the tick chain's per-call means.
type chainTimes struct {
	profilerTick, analyzerTick, rebuildMs float64 // ms
	assessUs                              float64
	rebuilds                              float64
	collectMs, analyzeMs                  float64
}

// tickChain applies the workload's tick sequence twice on pipelines built
// from the same seed: once through core.Pipeline.Tick, and once through
// the public parts core.Tick is assembled from (profiler.Collector.Tick,
// drift.Detector.Assess, analyzer.Incremental.TickContext or
// RebuildContext), timing each part.
func tickChain(in layerInput) (coreTickMs float64, ct chainTimes, err error) {
	sp, ops := in.spans, in.sched.Ticks
	ref, err := newReference(in.cfg)
	if err != nil {
		return 0, ct, err
	}
	d, err := sp.loop("core.tick", len(ops), func(i int) error { return ref.Tick(ops[i].Changed) })
	if err != nil {
		return 0, ct, err
	}
	coreTickMs = d / 1e6

	cc := coreConfig(in.cfg.Clusters)
	set, err := newTrace(in.cfg.Days)
	if err != nil {
		return 0, ct, err
	}
	ctx := context.Background()
	var coll *profiler.Collector
	var ds *profiler.Dataset
	collect, err := sp.loop("profiler.collect", in.cfg.LayerReps, func(int) error {
		c, err := profiler.NewCollector(cc.Machine, set, cc.Jobs, cc.Metrics, cc.Profile)
		if err != nil {
			return err
		}
		coll = c
		ds, err = c.Collect(ctx)
		return err
	})
	if err != nil {
		return 0, ct, err
	}
	var an *analyzer.Analysis
	analyze, err := sp.loop("analyzer.analyze", in.cfg.LayerReps, func(int) error {
		an, err = analyzer.AnalyzeContext(ctx, ds, cc.Analyze)
		return err
	})
	if err != nil {
		return 0, ct, err
	}
	inc, err := analyzer.NewIncremental(an, cc.Analyze)
	if err != nil {
		return 0, ct, err
	}
	var det *drift.Detector
	var profTick, assess, incTick, rebuild time.Duration
	var nProf, nAssess, nTick, nRebuild int
	timed := func(total *time.Duration, n *int, name string, fn func() error) error {
		start := time.Now()
		err := fn()
		end := time.Now()
		sp.add(spanRec{ID: sp.newID(), Name: name, Start: sp.since(start), End: sp.since(end)})
		*total += end.Sub(start)
		*n++
		return err
	}
	for _, op := range ops {
		var touched []int
		if err := timed(&profTick, &nProf, "profiler.tick", func() (err error) {
			touched, err = coll.Tick(ctx, op.Changed)
			return err
		}); err != nil {
			return 0, ct, err
		}
		if len(touched) == 0 {
			continue
		}
		if det == nil {
			if det, err = drift.NewDetector(inc.Analysis(), drift.DefaultQuantile); err != nil {
				return 0, ct, err
			}
		}
		delta := linalg.NewMatrix(len(touched), ds.Matrix.Cols())
		for i, id := range touched {
			copy(delta.RowView(i), ds.Matrix.RowView(id))
		}
		var drifted bool
		if err := timed(&assess, &nAssess, "drift.assess", func() error {
			r, err := det.Assess(delta)
			if err == nil {
				drifted = r.Drifted
			}
			return err
		}); err != nil {
			return 0, ct, err
		}
		var rebuilt bool
		start := time.Now()
		if drifted {
			rebuilt = true
			err = inc.RebuildContext(ctx)
		} else {
			rebuilt, err = inc.TickContext(ctx, touched)
		}
		end := time.Now()
		if err != nil {
			return 0, ct, err
		}
		name, total, n := "analyzer.tick", &incTick, &nTick
		if rebuilt {
			name, total, n = "analyzer.rebuild", &rebuild, &nRebuild
			det = nil // recalibrate on the rebuilt analysis, as core does
		}
		sp.add(spanRec{ID: sp.newID(), Name: name, Start: sp.since(start), End: sp.since(end)})
		*total += end.Sub(start)
		*n++
	}
	mean := func(total time.Duration, n int, unit time.Duration) float64 {
		return ratio(float64(total), float64(n)*float64(unit))
	}
	ct = chainTimes{
		profilerTick: mean(profTick, nProf, time.Millisecond),
		assessUs:     mean(assess, nAssess, time.Microsecond),
		analyzerTick: mean(incTick, nTick, time.Millisecond),
		rebuildMs:    mean(rebuild, nRebuild, time.Millisecond),
		rebuilds:     float64(inc.Rebuilds()),
		collectMs:    collect / 1e6,
		analyzeMs:    analyze / 1e6,
	}
	return coreTickMs, ct, nil
}
