package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"

	"flare/internal/core"
	"flare/internal/evaluate"
)

// estimateBody is the part of an estimate reply the checks compare with
// the reference pipeline. Unknown fields are ignored, so a reply that
// gains a field still checks.
type estimateBody struct {
	Feature           string  `json:"feature"`
	Job               string  `json:"job"`
	ReductionPct      float64 `json:"mips_reduction_pct"`
	ScenariosReplayed int     `json:"scenarios_replayed"`
	Degraded          bool    `json:"degraded"`
}

func parseEstimate(b []byte) (estimateBody, error) {
	var e estimateBody
	err := json.Unmarshal(b, &e)
	return e, err
}

// referenceEstimate evaluates key on p through core's public API.
func referenceEstimate(p *core.Pipeline, k estKey) (estimateBody, error) {
	e := estimateBody{Feature: k.Feature.Name, Job: k.Job}
	if k.Job == "" {
		est, err := p.EvaluateFeature(k.Feature)
		if err != nil {
			return e, err
		}
		e.ReductionPct, e.ScenariosReplayed = est.ReductionPct, est.ScenariosReplayed
		return e, nil
	}
	est, err := p.EvaluateFeatureForJob(k.Feature, k.Job)
	if err != nil {
		return e, err
	}
	e.ReductionPct, e.ScenariosReplayed = est.ReductionPct, est.ScenariosReplayed
	return e, nil
}

// referenceEstimates evaluates keys[todo[i]] on p from 2 goroutines;
// evaluation only reads the pipeline, as the server's concurrent
// estimates do.
func referenceEstimates(p *core.Pipeline, keys []estKey, todo []int) ([]estimateBody, error) {
	out := make([]estimateBody, len(todo))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(todo) && errs[w] == nil; i += len(errs) {
				out[i], errs[w] = referenceEstimate(p, keys[todo[i]])
			}
		}(w)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// checkPrimed compares every primed reply with an independently built
// reference pipeline and returns the largest |all-job estimate -
// full-datacenter truth| over the paper features, in percentage points.
func checkPrimed(cfg config, keys []estKey, primed [][]byte) (absErrPP float64, problems []string, err error) {
	ref, err := newReference(cfg)
	if err != nil {
		return 0, nil, err
	}
	ev, err := evaluate.New(ref.Machine(), ref.Jobs(), ref.Inherent(), ref.Dataset().Scenarios)
	if err != nil {
		return 0, nil, err
	}
	for i, k := range keys {
		want, err := referenceEstimate(ref, k)
		if err != nil {
			return 0, nil, err
		}
		got, perr := parseEstimate(primed[i])
		if perr != nil || got != want {
			problems = append(problems, fmt.Sprintf("%s: served %q, reference %+v", k.path(), primed[i], want))
			continue
		}
		if k.Job == "" {
			truth, err := ev.FullDatacenter(k.Feature)
			if err != nil {
				return 0, nil, err
			}
			absErrPP = math.Max(absErrPP, math.Abs(got.ReductionPct-truth.MeanReductionPct))
		}
	}
	return absErrPP, problems, nil
}

// tickBody is the tick reply.
type tickBody struct {
	Added           int `json:"added"`
	Remeasured      int `json:"remeasured"`
	Scenarios       int `json:"scenarios"`
	Clusters        int `json:"clusters"`
	Representatives int `json:"representatives"`
}

// applyTick applies op to the reference and checks the served reply
// against it.
func applyTick(ref *core.Pipeline, op tickOp, got tickSample) (ok bool, err error) {
	if err := ref.Tick(op.Changed); err != nil {
		return false, err
	}
	an := ref.Analysis()
	want := tickBody{Remeasured: len(op.Changed), Scenarios: an.Dataset.Scenarios.Len(),
		Clusters: an.Clustering.K, Representatives: len(an.Representatives)}
	var tb tickBody
	return got.Code == http.StatusOK && json.Unmarshal(got.Body, &tb) == nil && tb == want, nil
}

// checkTicks applies ops in order to a fresh reference pipeline and
// counts the replies that disagree with it.
func checkTicks(cfg config, ops []tickOp, got []tickSample) (failed int, err error) {
	ref, err := newReference(cfg)
	if err != nil {
		return 0, err
	}
	for i, op := range ops {
		ok, err := applyTick(ref, op, got[i])
		if err != nil {
			return 0, err
		}
		if !ok {
			failed++
		}
	}
	return failed, nil
}

// epochCheck is the tick-mix oracle. Epoch e is the analysis after the
// first e ticks. An estimate whose request interval [start, end] began
// after tick i answered (so i applied) and ended before tick j was sent
// (so j did not) may show any epoch between; it passes when it equals the
// reference pipeline's estimate at one of them.
type epochCheck struct {
	Estimates  int // estimates checked
	Mismatches int // estimates matching no overlapped epoch
	TickFailed int // tick replies disagreeing with the reference
}

func checkEpochs(cfg config, keys []estKey, ops []tickOp, ticks []tickSample, clients []clientResult) (epochCheck, error) {
	var res epochCheck
	ref, err := newReference(cfg)
	if err != nil {
		return res, err
	}
	done := make([]int64, len(ticks))
	sent := make([]int64, len(ticks))
	for i, t := range ticks {
		done[i], sent[i] = t.Done, t.Sent
	}
	countUpTo := func(ts []int64, at int64) int {
		return sort.Search(len(ts), func(i int) bool { return ts[i] > at })
	}
	type pending struct {
		client, sample int
		lo, hi         int
	}
	var all []pending
	need := make(map[[2]int]bool) // (epoch, key)
	for ci, c := range clients {
		for si, s := range c.Samples {
			p := pending{ci, si, countUpTo(done, s.Start), countUpTo(sent, s.End)}
			all = append(all, p)
			for e := p.lo; e <= p.hi; e++ {
				need[[2]int{e, s.Key}] = true
			}
		}
	}
	want := make(map[[2]int]estimateBody)
	for e := 0; e <= len(ops); e++ {
		if e > 0 {
			ok, err := applyTick(ref, ops[e-1], ticks[e-1])
			if err != nil {
				return res, err
			}
			if !ok {
				res.TickFailed++
			}
		}
		var todo []int
		for k := range keys {
			if need[[2]int{e, k}] {
				todo = append(todo, k)
			}
		}
		got, err := referenceEstimates(ref, keys, todo)
		if err != nil {
			return res, err
		}
		for i, k := range todo {
			want[[2]int{e, k}] = got[i]
		}
	}
	for _, p := range all {
		s := clients[p.client].Samples[p.sample]
		got, err := parseEstimate(clients[p.client].Bodies[s.Body])
		match := false
		for e := p.lo; e <= p.hi && err == nil && !match; e++ {
			match = got == want[[2]int{e, s.Key}]
		}
		res.Estimates++
		if !match {
			res.Mismatches++
		}
	}
	return res, nil
}
