package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"flare/internal/obs"
)

// quantile is the exact nearest-rank q-quantile of raw samples (sorted
// in place): the smallest sample with at least q of all samples at or
// below it. No buckets, no interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// beyond is how many of n samples lie above the nearest-rank q-quantile.
// A percentile is only supported when at least ten samples lie beyond it.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// percentileLine describes a percentile with its sample support.
func percentileLine(name string, xs []float64, q float64, unit string) string {
	b := beyond(len(xs), q)
	return fmt.Sprintf("%-18s %12.4f %-6s n=%d, %d beyond%s", name, quantile(xs, q), unit, len(xs), b, unsupported(b))
}

// unsupported flags a percentile with fewer than ten samples beyond it.
func unsupported(beyond int) string {
	if beyond < 10 {
		return " (UNSUPPORTED: fewer than 10 samples beyond it)"
	}
	return ""
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// cacheCounts reads flare_estimate_cache_total by result.
type cacheCounts struct{ Hit, Miss, Stale uint64 }

func readCache(reg *obs.Registry) cacheCounts {
	get := func(result string) uint64 {
		v, _ := reg.CounterFamilyTotal("flare_estimate_cache_total", func(labels string) bool {
			return strings.Contains(labels, `result="`+result+`"`)
		})
		return v
	}
	return cacheCounts{Hit: get("hit"), Miss: get("miss"), Stale: get("stale")}
}

func (c cacheCounts) sub(o cacheCounts) cacheCounts {
	return cacheCounts{c.Hit - o.Hit, c.Miss - o.Miss, c.Stale - o.Stale}
}

// computed is the number of lookups that started a computation.
func (c cacheCounts) computed() uint64 { return c.Miss + c.Stale }

// walBatches reads the store's group-commit counter: one WAL write and
// one fsync per batch.
func walBatches(reg *obs.Registry) uint64 {
	v, _ := reg.CounterFamilyTotal("flare_store_wal_commit_batches_total", nil)
	return v
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// The latency and rate figures are taken over short windows, so each
// window can be scaled to the reference speed by the reference-kernel
// bursts timed in it (see calib.go). The median over windows of the scaled
// figures is reported: a window in which the process stalled (a long
// fsync, a descheduled vCPU) moves it no more than any other slow window.
const (
	windowLen = 500 * time.Millisecond // estimate windows
	tickChunk = 40                     // consecutive ticks per tick window
)

// estimateStats summarises a phase's estimates. The phase is cut into
// windows of windowLen. p50 is the median over windows of each window's
// exact p50 of the raw durations, scaled to the reference speed by the
// window's calibration bursts; the rate is the median of the windows'
// completions per second, scaled the same way. The unscaled figures are
// kept for the output. p99 needs more samples than a window holds, so it
// is the exact, unscaled p99 of the whole phase.
type estimateStats struct {
	P50, P99, RPS float64
	RawP50        float64   // median of the unscaled window p50s, ms
	RawRPS        float64   // completions over the whole phase per second
	CalUs         float64   // median reference-kernel burst over the phase, µs
	N             int       // requests in the phase
	WinP50s       []float64 // each window's exact p50, unscaled, ms
	WinRates      []float64 // each window's completions per second, unscaled
	WinScales     []float64 // each window's calScale
}

func summarizeEstimates(clients []clientResult, elapsed time.Duration) estimateStats {
	n := max(int(elapsed/windowLen), 1)
	window := func(end int64) int { return min(int(end*int64(n)/int64(elapsed)), n-1) }
	wins := make([][]float64, n)
	cals := make([][]float64, n)
	var all, allCal []float64
	for _, c := range clients {
		for i, d := range c.Durations {
			ms := float64(d) / 1e6
			wins[window(c.Ends[i])] = append(wins[window(c.Ends[i])], ms)
			all = append(all, ms)
		}
		for i, ns := range c.Cal {
			cals[window(c.CalEnds[i])] = append(cals[window(c.CalEnds[i])], float64(ns))
			allCal = append(allCal, float64(ns))
		}
	}
	st := estimateStats{N: len(all), P99: quantile(all, 0.99), RawRPS: float64(len(all)) / elapsed.Seconds(),
		CalUs: median(allCal) / 1e3}
	winSecs := elapsed.Seconds() / float64(n)
	var p50s, rates []float64
	for i, w := range wins {
		scale := calScale(allCal)
		if len(cals[i]) > 0 {
			scale = calScale(cals[i])
		}
		p50, rate := quantile(w, 0.5), float64(len(w))/winSecs
		st.WinP50s = append(st.WinP50s, p50)
		st.WinRates = append(st.WinRates, rate)
		st.WinScales = append(st.WinScales, scale)
		p50s = append(p50s, p50*scale)
		rates = append(rates, rate/scale)
	}
	st.P50, st.RPS, st.RawP50 = median(p50s), median(rates), median(st.WinP50s)
	return st
}

// tickChunkP50s is the exact p50 of each run of tickChunk consecutive
// ticks, in send order (a short last run joins the one before it), scaled
// to the reference speed by the calibration bursts after those ticks
// (cal[i] is tick i's burst in ns, 0 if none ran). With nil cal it is
// unscaled.
func tickChunkP50s(ms, cal []float64) []float64 {
	var out []float64
	for i := 0; i < len(ms); i += tickChunk {
		end := i + tickChunk
		if len(ms)-end < tickChunk {
			end = len(ms)
		}
		var bursts []float64
		for _, ns := range cal[min(i, len(cal)):min(end, len(cal))] {
			if ns > 0 {
				bursts = append(bursts, ns)
			}
		}
		out = append(out, quantile(append([]float64(nil), ms[i:end]...), 0.5)*calScale(bursts))
		if end == len(ms) {
			break
		}
	}
	return out
}
