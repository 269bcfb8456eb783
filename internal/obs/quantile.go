// Histogram state extraction and quantile estimation. The SLO layer
// needs "p99 over the last five minutes", but a Histogram is cumulative
// over the process lifetime — so consumers capture HistogramStates
// periodically, subtract two of them to get a windowed delta, and
// estimate quantiles from the delta's bucket counts.
package obs

import (
	"sort"
	"sync/atomic"
)

// NewHistogram returns a standalone histogram that is not attached to
// any registry. Load generators and other client-side tools use it to
// record per-worker latencies without polluting the process registry;
// the per-worker states then combine through HistogramState.Merge.
// buckets are ascending finite upper bounds; nil means
// DefaultLatencyBuckets. The slice is copied and sorted.
func NewHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefaultLatencyBuckets()
	}
	b := make([]float64, len(buckets))
	copy(b, buckets)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// HistogramState is a point-in-time copy of a histogram's cumulative
// buckets. States from the same family subtract cleanly because bucket
// bounds are fixed at first registration.
type HistogramState struct {
	// Bounds are the ascending finite upper bounds; the +Inf bucket is
	// Cumulative's final entry.
	Bounds []float64
	// Cumulative has len(Bounds)+1 entries; the last equals Count.
	Cumulative []uint64
	Sum        float64
	Count      uint64
}

// State returns the histogram's current cumulative state.
func (h *Histogram) State() HistogramState {
	bounds, cum, sum, count := h.snapshot()
	return HistogramState{Bounds: bounds, Cumulative: cum, Sum: sum, Count: count}
}

// Sub returns the per-bucket delta s minus prev — the observations that
// landed between the two captures. A mismatched or zero prev (different
// bucket count, or counts that ran backwards after a restart) yields s
// unchanged, so callers degrade to lifetime totals instead of panicking.
func (s HistogramState) Sub(prev HistogramState) HistogramState {
	if len(prev.Cumulative) != len(s.Cumulative) || prev.Count > s.Count {
		return s
	}
	out := HistogramState{
		Bounds:     s.Bounds,
		Cumulative: make([]uint64, len(s.Cumulative)),
		Sum:        s.Sum - prev.Sum,
		Count:      s.Count - prev.Count,
	}
	for i := range s.Cumulative {
		if prev.Cumulative[i] > s.Cumulative[i] {
			return s
		}
		out.Cumulative[i] = s.Cumulative[i] - prev.Cumulative[i]
	}
	return out
}

// Merge returns the element-wise sum of s and o — the combined
// distribution of two recorders sharing one bucket layout (e.g. the
// per-worker histograms of a load generator). Merging states with
// mismatched bucket counts returns s unchanged, mirroring Sub's
// degrade-don't-panic convention; an empty s adopts o wholesale.
func (s HistogramState) Merge(o HistogramState) HistogramState {
	if len(s.Cumulative) == 0 {
		return o
	}
	if len(o.Cumulative) == 0 {
		return s
	}
	if len(o.Cumulative) != len(s.Cumulative) {
		return s
	}
	out := HistogramState{
		Bounds:     s.Bounds,
		Cumulative: make([]uint64, len(s.Cumulative)),
		Sum:        s.Sum + o.Sum,
		Count:      s.Count + o.Count,
	}
	for i := range s.Cumulative {
		out.Cumulative[i] = s.Cumulative[i] + o.Cumulative[i]
	}
	return out
}

// Quantile estimates the q-quantile (0 < q < 1) of the state's samples
// by linear interpolation inside the containing bucket — the standard
// Prometheus histogram_quantile estimate. Samples in the +Inf bucket
// clamp to the largest finite bound; an empty state returns 0.
func (s HistogramState) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Cumulative) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	for i, c := range s.Cumulative {
		if float64(c) < rank {
			continue
		}
		if i == len(s.Bounds) {
			// +Inf bucket: no finite upper bound to interpolate toward.
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		var below uint64
		if i > 0 {
			lo = s.Bounds[i-1]
			below = s.Cumulative[i-1]
		}
		in := float64(c - below)
		if in <= 0 {
			return s.Bounds[i]
		}
		return lo + (s.Bounds[i]-lo)*(rank-float64(below))/in
	}
	return s.Bounds[len(s.Bounds)-1]
}

// HistogramState aggregates every series of the named histogram family
// into one state (element-wise sum of cumulative buckets). ok is false
// when the family does not exist, is not a histogram, or has no series.
// Series whose bucket layout disagrees with the family's first series
// are skipped — possible only if registrations passed different bucket
// slices, which the registry's first-registration rule discourages.
func (r *Registry) HistogramState(name string) (HistogramState, bool) {
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f == nil || f.typ != typeHistogram {
		return HistogramState{}, false
	}
	f.mu.Lock()
	insts := make([]*Histogram, 0, len(f.order))
	for _, k := range f.order {
		if h, ok := f.series[k].inst.(*Histogram); ok {
			insts = append(insts, h)
		}
	}
	f.mu.Unlock()
	var agg HistogramState
	for _, h := range insts {
		st := h.State()
		if agg.Cumulative == nil {
			agg = st
			continue
		}
		if len(st.Cumulative) != len(agg.Cumulative) {
			continue
		}
		for i := range st.Cumulative {
			agg.Cumulative[i] += st.Cumulative[i]
		}
		agg.Sum += st.Sum
		agg.Count += st.Count
	}
	return agg, agg.Cumulative != nil
}

// CounterFamilyTotal sums every series of the named counter family;
// match filters by the series' rendered label suffix ({k="v",...}; ""
// for the unlabelled series) and nil matches everything. ok is false
// when the family does not exist or is not a counter family.
func (r *Registry) CounterFamilyTotal(name string, match func(labels string) bool) (uint64, bool) {
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f == nil || f.typ != typeCounter {
		return 0, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var total uint64
	for _, k := range f.order {
		if match != nil && !match(f.series[k].labels) {
			continue
		}
		if c, ok := f.series[k].inst.(*Counter); ok {
			total += c.Value()
		}
	}
	return total, true
}
