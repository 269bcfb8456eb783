package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("flare_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same identity returns the same instrument.
	if r.Counter("flare_test_total", "a counter") != c {
		t.Error("re-registration returned a different counter")
	}

	g := SLOP50.In(r)
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
}

func TestLabelledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	hit := r.Counter("flare_cache_total", "cache lookups", "result", "hit")
	miss := r.Counter("flare_cache_total", "cache lookups", "result", "miss")
	if hit == miss {
		t.Fatal("differently labelled series share a counter")
	}
	hit.Inc()
	hit.Inc()
	miss.Inc()
	// Label order must not matter for identity.
	alias := r.Counter("flare_multi_total", "x", "b", "2", "a", "1")
	if alias != r.Counter("flare_multi_total", "x", "a", "1", "b", "2") {
		t.Error("label order changed series identity")
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("flare_lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 56.05 {
		t.Errorf("sum = %v, want 56.05", h.Sum())
	}
	bounds, cum, _, _ := h.snapshot()
	if len(bounds) != 3 {
		t.Fatalf("bounds = %v", bounds)
	}
	want := []uint64{1, 3, 4, 5} // cumulative: <=0.1, <=1, <=10, +Inf
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], w)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("flare_reqs_total", "requests", "path", "/healthz", "code", "200").Add(3)
	StoreSegmentsLive.In(r).Set(448)
	r.Histogram("flare_lat_seconds", "latency", []float64{0.5, 1}).Observe(0.25)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP flare_reqs_total requests",
		"# TYPE flare_reqs_total counter",
		`flare_reqs_total{code="200",path="/healthz"} 3`,
		"# TYPE flare_store_segments_live gauge",
		"flare_store_segments_live 448",
		"# TYPE flare_lat_seconds histogram",
		`flare_lat_seconds_bucket{le="0.5"} 1`,
		`flare_lat_seconds_bucket{le="1"} 1`,
		`flare_lat_seconds_bucket{le="+Inf"} 1`,
		"flare_lat_seconds_sum 0.25",
		"flare_lat_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestExpositionEscapesLabelValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("flare_esc_total", "", "k", "a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `{k="a\"b\\c\nd"}`) {
		t.Errorf("label escaping wrong: %s", b.String())
	}
}

func TestExpositionEscapesEachSpecialCharacter(t *testing.T) {
	// Per-character coverage of the text-format escapes: backslash must
	// escape first (otherwise the \n and \" escapes get double-escaped).
	cases := []struct{ raw, rendered string }{
		{`back\slash`, `back\\slash`},
		{`quo"te`, `quo\"te`},
		{"new\nline", `new\nline`},
		{"\\\"\n", `\\\"\n`},
		{"plain", "plain"},
	}
	for _, c := range cases {
		r := NewRegistry()
		r.Counter("flare_esc_total", "", "v", c.raw).Inc()
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		want := `flare_esc_total{v="` + c.rendered + `"} 1`
		if !strings.Contains(b.String(), want) {
			t.Errorf("value %q: exposition missing %q in:\n%s", c.raw, want, b.String())
		}
	}
}

func TestHistogramInfBucketInvariant(t *testing.T) {
	// The +Inf bucket is cumulative: it must always equal _count, for
	// every labelled series, including samples above the top bound and
	// series with zero samples.
	r := NewRegistry()
	h := r.Histogram("flare_inv_seconds", "", []float64{0.1, 1}, "route", "/a")
	for _, v := range []float64{0.05, 0.5, 50, 100} {
		h.Observe(v)
	}
	r.Histogram("flare_inv_seconds", "", []float64{0.1, 1}, "route", "/b") // no samples

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`flare_inv_seconds_bucket{route="/a",le="0.1"} 1`,
		`flare_inv_seconds_bucket{route="/a",le="1"} 2`,
		`flare_inv_seconds_bucket{route="/a",le="+Inf"} 4`,
		`flare_inv_seconds_count{route="/a"} 4`,
		`flare_inv_seconds_bucket{route="/b",le="+Inf"} 0`,
		`flare_inv_seconds_count{route="/b"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Cross-check via snapshot: +Inf == count and buckets monotone.
	bounds, cum, _, count := h.snapshot()
	if cum[len(cum)-1] != count {
		t.Errorf("+Inf cumulative %d != count %d", cum[len(cum)-1], count)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Errorf("cumulative not monotone at %d: %v (bounds %v)", i, cum, bounds)
		}
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("type mismatch did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter(SLOP50.Name, "")
	SLOP50.In(r)
}

// TestConcurrentRegistryAccess exercises every instrument from many
// goroutines; run with -race.
func TestConcurrentRegistryAccess(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("flare_conc_total", "c", "w", string(rune('a'+w%4))).Inc()
				SLOP50.In(r).Add(1)
				r.Histogram("flare_conc_seconds", "h", nil).Observe(float64(i) / 100)
				if i%50 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b)
				}
			}
		}(w)
	}
	wg.Wait()

	var total uint64
	for _, l := range []string{"a", "b", "c", "d"} {
		total += r.Counter("flare_conc_total", "c", "w", l).Value()
	}
	if total != workers*iters {
		t.Errorf("counter total = %d, want %d", total, workers*iters)
	}
	if got := r.Histogram("flare_conc_seconds", "h", nil).Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
	// Every worker observes i/100 for i < iters; the CAS-added sum may
	// differ from the closed form only by float rounding.
	wantSum := float64(workers) * float64(iters*(iters-1)/2) / 100
	if got := r.Histogram("flare_conc_seconds", "h", nil).Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", got, wantSum)
	}
	if got := SLOP50.In(r).Value(); got != workers*iters {
		t.Errorf("gauge = %v, want %d", got, workers*iters)
	}
}

func TestNilRegistryRecordsNothing(t *testing.T) {
	var r *Registry
	c := r.Counter("flare_test_total", "a counter", "k", "v")
	c.Add(3)
	if c.Value() != 3 {
		t.Errorf("detached counter = %d, want 3", c.Value())
	}
	if got := r.Counter("flare_test_total", "a counter", "k", "v").Value(); got != 0 {
		t.Errorf("second lookup = %d, want 0: a nil registry must not accumulate", got)
	}
	g := SLOP50.In(r)
	g.Set(2)
	if g.Value() != 2 || SLOP50.In(r).Value() != 0 {
		t.Error("nil-registry gauge works only on its own handle")
	}
	h := r.Histogram("flare_test_seconds", "a histogram", []float64{1, 0.1})
	h.Observe(0.5)
	if h.Count() != 1 || h.Sum() != 0.5 {
		t.Errorf("detached histogram count/sum = %d/%v, want 1/0.5", h.Count(), h.Sum())
	}
	if r.Histogram("flare_test_seconds", "a histogram", nil).Count() != 0 {
		t.Error("second histogram lookup saw an earlier observation")
	}

	// A tracer without a registry, and a missing tracer, expose none.
	if NewTracer(nil).Registry() != nil {
		t.Error("NewTracer(nil).Registry() != nil")
	}
	if TracerFrom(context.Background()).Registry() != nil {
		t.Error("nil tracer's Registry() != nil")
	}
	tr := NewTracer(nil)
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < DefaultTraceCapacity+2; i++ { // evictions count into a detached counter
		_, span := StartSpan(ctx, "stage")
		span.End()
	}
	if got := len(tr.Snapshot()); got != DefaultTraceCapacity {
		t.Errorf("retained roots = %d, want %d", got, DefaultTraceCapacity)
	}
}
