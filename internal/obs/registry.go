// Package obs is FLARE's self-measurement layer: a dependency-free
// telemetry registry (counters, gauges, fixed-bucket histograms) with
// Prometheus-text and JSON exposition, and lightweight span tracing for
// recording nested pipeline stage timings.
//
// The paper's whole argument is a cost/accuracy trade-off; obs is how the
// reproduction measures its *own* cost. Every pipeline stage records a
// span (surfaced at /api/trace and via flare -trace-out) and observes its
// duration into the stage-timing histogram (surfaced at /metrics).
//
// Every flare_* family is declared once, in families.go, with its name,
// help, type and label keys; code resolves a series through its
// declaration (EstimateCache.In(reg, "hit")). The registry is safe for
// concurrent use. Metric identity is the family name plus the label
// values; resolving the same identity again returns the same
// instrument. A resolution renders the label set and takes the registry
// and family mutexes, so components resolve series with fixed label
// values once, when they are built (the server's cache-result and
// timeout counters, a retry policy's counters at Bind), and cache
// runtime-keyed ones by key (the Tracer's stage histogram per span name,
// the middleware's per-route and per-status series, each resolved when
// its first request reports it). Instruments themselves are lock-free:
// counters and gauges are atomics, histograms atomic buckets.
//
// There is no process-wide registry: every process root creates one with
// NewRegistry and passes it on. A nil *Registry records nothing — its
// instruments work but are detached from any exposition — so a library
// handed no registry stays silent instead of writing somewhere global.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricType discriminates instrument families.
type metricType int

const (
	typeCounter metricType = iota + 1
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by delta.
func (g *Gauge) Add(delta float64) { addFloat(&g.bits, delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloat adds delta to the float64 stored as bits (compare-and-swap
// loop).
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram is a fixed-bucket cumulative histogram. Observe is
// lock-free: bucket counts are atomic and the sum is a CAS loop. The
// sample count is the bucket total, so _count always equals the +Inf
// bucket.
type Histogram struct {
	bounds  []float64       // ascending upper bounds, +Inf implicit
	counts  []atomic.Uint64 // per-bucket (non-cumulative) counts, len(bounds)+1
	sumBits atomic.Uint64   // float64 bits of the sample sum
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1) // first bound >= v
	addFloat(&h.sumBits, v)
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns bounds plus cumulative bucket counts (including +Inf,
// which is also the returned count).
func (h *Histogram) snapshot() (bounds []float64, cumulative []uint64, sum float64, count uint64) {
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return h.bounds, cumulative, h.Sum(), acc
}

// DefaultLatencyBuckets spans 100µs to 60s, suitable both for HTTP
// handlers and for multi-second pipeline stages.
func DefaultLatencyBuckets() []float64 {
	return []float64{1e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 0.01, 0.025, 0.05,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
}

// series is one labelled instrument within a family.
type series struct {
	labels string // rendered {k="v",...} suffix, "" when unlabelled
	inst   interface{}
}

// family groups every labelled series of one metric name.
type family struct {
	name string
	help string
	typ  metricType

	mu     sync.Mutex
	series map[string]*series
	order  []string
}

// Registry holds metric families. The zero value is not usable; create
// with NewRegistry. A nil *Registry records nothing.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns (creating if needed) the named family, panicking on a
// type mismatch — mixing types under one name is a programming error the
// exposition format cannot represent.
func (r *Registry) family(name, help string, typ metricType) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	return f
}

// renderLabels builds the canonical {k="v",...} suffix from variadic
// key/value pairs, sorting by key for a stable identity.
func renderLabels(kv []string) string {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", kv))
	}
	n := len(kv) / 2
	split := make([]string, len(kv))
	keys, values := split[:n], split[n:]
	for i := range keys {
		keys[i], values[i] = kv[2*i], kv[2*i+1]
	}
	return writeLabels(keys, values, sortedOrder(keys))
}

// writeLabels renders keys[i]=values[i] pairs as a {k="v",...} suffix,
// visiting i in order; "" when there are no keys.
func writeLabels(keys, values []string, order []int) string {
	if len(keys) == 0 {
		return ""
	}
	size := 1 // exact unless values need escaping: braces, k="v" pairs, separators
	for i := range keys {
		size += len(keys[i]) + len(values[i]) + 4
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteByte('{')
	for n, i := range order {
		if n > 0 {
			b.WriteByte(',')
		}
		b.WriteString(keys[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// get returns (creating via mk if needed) the series for a rendered
// label set.
func (f *family) get(key string, mk func() interface{}) interface{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key, inst: mk()}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s.inst
}

// Counter returns the counter for name and label pairs, registering it on
// first use. labels are alternating key, value strings. On a nil registry
// it returns a detached counter. Components resolve series through the
// family declarations in families.go instead; this by-name form remains
// because the benchmark harness times it.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return &Counter{}
	}
	f := r.family(name, help, typeCounter)
	return f.get(renderLabels(labels), func() interface{} { return &Counter{} }).(*Counter)
}

// Histogram returns the histogram for name and label pairs. buckets are
// ascending upper bounds; nil means DefaultLatencyBuckets. Buckets are
// fixed by the first registration of the family's first series. On a nil
// registry it returns a detached histogram. Like Counter, it remains
// only because the benchmark harness times it.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return NewHistogram(buckets)
	}
	f := r.family(name, help, typeHistogram)
	return f.get(renderLabels(labels), func() interface{} { return NewHistogram(buckets) }).(*Histogram)
}

// sortedFamilies returns families sorted by name for deterministic
// exposition.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		sers := make([]*series, 0, len(keys))
		for _, k := range keys {
			sers = append(sers, f.series[k])
		}
		f.mu.Unlock()
		sort.Slice(sers, func(i, j int) bool { return sers[i].labels < sers[j].labels })

		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range sers {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch inst := s.inst.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, inst.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(inst.Value()))
		return err
	case *Histogram:
		bounds, cum, sum, count := inst.snapshot()
		for i, le := range bounds {
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, mergeLE(s.labels, formatFloat(le)), cum[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, mergeLE(s.labels, "+Inf"), cum[len(cum)-1]); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, formatFloat(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, count)
		return err
	default:
		return fmt.Errorf("obs: unknown instrument type %T", inst)
	}
}

// mergeLE splices the le="..." label into an existing rendered label set.
func mergeLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// formatFloat renders a float compactly ("0.005", not "5e-03"), matching
// what scrapers expect for bucket bounds and sums.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
